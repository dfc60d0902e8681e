// Command concpool drives a replicated concentrator pool through a
// deterministic chaos schedule: seeded chip faults, mid-stream primary
// kills with later board swaps, gray-failure stall bursts,
// control-plane partitions with lease-fenced failover, and
// probe-latency injections, while Bernoulli traffic streams and every
// round is checked against the live replica set's degraded delivery
// contract ⌊α′m′⌋ (and, with -deadline, against the deadline SLO).
//
// Usage examples:
//
//	concpool -faults 0 -kills 0
//	concpool -switch columnsort -n 256 -m 128 -beta 0.75 -replicas 3 -rounds 200 -faults 4 -kills 2
//	concpool -switch revsort -n 1024 -m 512 -replicas 2 -seed 1987 -kills 1 -verbose
//	concpool -replicas 4 -faults 6 -kills 3 -scan-latency-jitter
//	concpool -replicas 3 -faults 0 -kills 0 -stalls 5 -deadline 5 -hedge-quantile 0.9
//	concpool -replicas 2 -faults 0 -kills 0 -surges 3
//	concpool -replicas 3 -faults 0 -kills 0 -crashes 4 -drains 2
//	concpool -replicas 3 -crashes 4 -unjournaled -json
//	concpool -replicas 3 -faults 0 -kills 0 -partitions 4 -lease-rounds 8
//	concpool -replicas 3 -faults 0 -kills 0 -partitions 4 -asym -crashes 2
//	concpool -replicas 3 -faults 0 -kills 0 -partitions 4 -unfenced -json
//	concpool -replicas 3 -faults 0 -kills 0 -byzantine 4
//	concpool -replicas 3 -faults 0 -kills 0 -byzantine 4 -unverified -json
//
// Exit status follows the shared cli contract: 0 when the pool
// survived the schedule, 1 on usage or construction errors, 2 when any
// round regressed below the degraded contract, missed the deadline
// SLO, broke a conservation law, delivered a frame under a stale
// fencing token, or booked a forged or replayed claim as Delivered.
package main

import (
	"flag"
	"fmt"
	"os"

	"concentrators/cmd/internal/cli"
	"concentrators/internal/chaos"
	"concentrators/internal/core"
	"concentrators/internal/overload"
	"concentrators/internal/pool"
)

func main() {
	kind := flag.String("switch", "columnsort", "switch design: revsort | columnsort")
	n := flag.Int("n", 256, "number of input wires")
	m := flag.Int("m", 0, "number of output wires (default n/2)")
	beta := flag.Float64("beta", 0.75, "columnsort shape parameter β ∈ [1/2, 1]")
	replicas := flag.Int("replicas", 3, "pool size: primary + hot spares")
	rounds := flag.Int("rounds", 200, "traffic rounds to replay")
	load := flag.Float64("load", 0.7, "per-input Bernoulli message probability")
	payload := flag.Int("payload", 8, "payload length in bits")
	seed := flag.Int64("seed", 1, "seed for both the schedule and the traffic")
	faults := flag.Int("faults", 3, "chip faults to schedule across the replicas")
	kills := flag.Int("kills", 2, "mid-stream primary kills to schedule (each revived later)")
	jitter := flag.Bool("scan-latency-jitter", false, "inject probe-scan latency changes mid-run")
	stalls := flag.Int("stalls", 0, "gray-failure stall bursts to schedule against the active replica (constant / jitter / ramp shapes, bounded windows)")
	surges := flag.Int("surges", 0, "offered-load surge bursts to schedule (step / ramp / flash-crowd shapes, load ×2 to ×4, bounded windows); enables the pool's closed-loop admission control")
	deadline := flag.Int("deadline", 0, "per-round deadline budget in rounds; enables the deadline-SLO regression check (0 disables)")
	hedgeQuantile := flag.Float64("hedge-quantile", 0, "hedge rounds slower than this pool latency quantile onto a spare (0 lets stall schedules pick the 0.9 default)")
	crashes := flag.Int("crashes", 0, "control-process crash-restarts to schedule; the pool recovers from its per-round checkpoint journal")
	drains := flag.Int("drains", 0, "rolling checkpoint/drain/rejoin maintenance cycles to schedule")
	unjournaled := flag.Bool("unjournaled", false, "disable the checkpoint journal so crashes lose ledger and backlog (the experimental control)")
	partitions := flag.Int("partitions", 0, "control-plane partition windows to schedule (symmetric cuts, flapping edges, arbiter isolation); enables lease-fenced failover and needs ≥ 3 replicas")
	asym := flag.Bool("asym", false, "shape partition windows as one-way cuts (grants vanish, acks keep flowing) instead of flapping edges")
	leaseRounds := flag.Int("lease-rounds", 0, "primary-lease duration in rounds for partition schedules (0 means the default 8)")
	unfenced := flag.Bool("unfenced", false, "disable fencing-token checks at the ledger so partitions double-deliver (the split-brain control)")
	byzantine := flag.Int("byzantine", 0, "byzantine lie windows to schedule on the serving replica (misroute / replay / fabricated-ack / equivocation); arms frame provenance and witness audits and needs ≥ 3 replicas")
	unverified := flag.Bool("unverified", false, "disable receiving-edge provenance verification so replays and fabrications double-count (the blind-ledger control)")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON stats document instead of prose")
	verbose := flag.Bool("verbose", false, "print every round that fired events or failed over")
	cli.Parse("concpool")

	if *m == 0 {
		*m = *n / 2
	}
	build := func() (core.FaultInjectable, error) {
		var sw core.Concentrator
		var err error
		switch *kind {
		case "revsort":
			sw, err = core.NewRevsortSwitch(*n, *m)
		case "columnsort":
			sw, err = core.NewColumnsortSwitchBeta(*n, *m, *beta)
		default:
			return nil, fmt.Errorf("unknown switch %q (pool needs a multichip fault-injectable design)", *kind)
		}
		if err != nil {
			return nil, err
		}
		return sw.(core.FaultInjectable), nil
	}

	cfg := chaos.Config{
		Replicas:             *replicas,
		Rounds:               *rounds,
		Load:                 *load,
		PayloadBits:          *payload,
		Seed:                 *seed,
		Faults:               *faults,
		Kills:                *kills,
		Stalls:               *stalls,
		Surges:               *surges,
		CheckSLO:             *deadline > 0,
		ScanLatencyJitter:    *jitter,
		Crashes:              *crashes,
		Drains:               *drains,
		Unjournaled:          *unjournaled,
		Partitions:           *partitions,
		AsymPartitions:       *asym,
		LeaseRounds:          *leaseRounds,
		Byzantine:            *byzantine,
		UnverifiedProvenance: *unverified,
		Pool: pool.Config{
			HedgeQuantile: *hedgeQuantile,
			Deadline:      *deadline,
			Lease:         pool.LeaseConfig{Unfenced: *unfenced},
		},
	}
	if *surges > 0 {
		// Surge schedules run against the closed loop: AIMD admission
		// plus brownout degradation under sustained congestion.
		cfg.Pool.Overload = &overload.Config{}
	}
	if *crashes > 0 && cfg.Pool.Overload == nil {
		// Crash schedules model shed clients that retry, so a crash has
		// client backlog worth losing; the closed loop admits against it.
		cfg.Pool.Overload = &overload.Config{BacklogFactor: 1}
	}

	probe, err := build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}
	if !*jsonOut {
		fmt.Printf("switch: %s  n=%d m=%d ε=%d  threshold %d\n",
			probe.Name(), probe.Inputs(), probe.Outputs(), probe.EpsilonBound(), core.Threshold(probe))
	}

	events, err := chaos.GenerateSchedule(*seed, probe, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}
	if !*jsonOut {
		fmt.Printf("schedule: seed %d, %d events over %d rounds\n", *seed, len(events), *rounds)
		for _, ev := range events {
			fmt.Printf("  %s\n", ev)
		}
	}

	rep, err := chaos.Run(build, events, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}

	// Every run checks one conservation law, the one for the ledger its
	// schedule arms; breach names the broken law.
	s, b := rep.Stats, rep.Byzantine
	var breach string
	switch {
	case *partitions > 0:
		// Fenced conservation: every physically served frame — primary
		// and shadow — is Delivered, Fenced, buffered in flight, or
		// booked crash-lost. The same formula audits the unfenced
		// control (Fenced is then 0 and the stale double deliveries sit
		// inside Delivered).
		if s.Delivered+s.Fenced+s.InFlightAcks+rep.Crash.DeliveredLost != rep.Partition.TrueServed {
			breach = fmt.Sprintf("Fenced conservation broken: delivered %d + fenced %d + in-flight %d + lost %d != true served %d",
				s.Delivered, s.Fenced, s.InFlightAcks, rep.Crash.DeliveredLost, rep.Partition.TrueServed)
		}
	case *byzantine > 0:
		// Claim conservation: every claim the liars emitted is
		// Delivered, Forged, or Duplicated — blind ledgers book
		// everything into the first term, so the formula audits the
		// unverified control too.
		if b.Booked+b.Forged+b.Duplicated != b.TrueDelivered+b.Replayed+b.Fabricated {
			breach = fmt.Sprintf("claim conservation broken: booked %d + forged %d + duplicated %d != true %d + replayed %d + fabricated %d",
				b.Booked, b.Forged, b.Duplicated, b.TrueDelivered, b.Replayed, b.Fabricated)
		}
	default:
		// Delivery-ledger conservation: every message the pool ever
		// delivered is in the surviving ledger or booked lost to a crash.
		if s.Delivered+rep.Crash.DeliveredLost != rep.Crash.TrueDelivered {
			breach = fmt.Sprintf("delivery-ledger conservation broken: delivered %d + lost to crashes %d != true delivered %d",
				s.Delivered, rep.Crash.DeliveredLost, rep.Crash.TrueDelivered)
		}
	}

	if *jsonOut {
		cli.EmitJSON(struct {
			Mode        string `json:"mode"`
			Switch      string `json:"switch"`
			Seed        int64
			Events      int
			Stats       pool.Stats
			Crash       chaos.CrashRecord
			Partition   chaos.PartitionRecord
			Byzantine   chaos.ByzantineRecord
			Conserved   bool
			Regressions []string
		}{"chaos", probe.Name(), *seed, len(events), s, rep.Crash, rep.Partition, b, breach == "", rep.Regressions})
		if len(rep.Regressions) > 0 || breach != "" {
			os.Exit(cli.ExitViolation)
		}
		return
	}

	if *verbose {
		for _, rr := range rep.Rounds {
			if len(rr.Events) == 0 && !rr.FailedOver && !rr.Violated {
				continue
			}
			status := ""
			if rr.FailedOver {
				status = "  FAILED OVER"
			}
			if rr.Hedged {
				status += "  HEDGED"
			}
			if rr.DeadlineMissed > 0 {
				status += "  DEADLINE MISSED"
			}
			if rr.Violated {
				status += "  VIOLATED"
			}
			fmt.Printf("  round %3d: served by %d, admitted %d, shed %d, delivered %d (threshold %d)%s\n",
				rr.Round, rr.ServedBy, rr.Admitted, rr.Shed, rr.Delivered, rr.Threshold, status)
			for _, ev := range rr.Events {
				fmt.Printf("    fired: %s\n", ev)
			}
		}
	}

	fmt.Printf("replay: %d rounds  offered %d, admitted %d, shed %d, delivered %d\n",
		s.Rounds, s.Offered, s.Admitted, s.Shed, s.Delivered)
	if s.Shed > 0 {
		fmt.Printf("  mean advertised retry-after %.2f rounds over %d shed messages\n",
			s.MeanRetryAfter(), s.Shed)
	}
	if *surges > 0 {
		fmt.Printf("  closed loop: admit fraction %.2f, congested rounds %d, brownout level %d (%d enters, %d exits)\n",
			s.AdmitFraction, s.CongestedRounds, s.BrownoutLevel, s.BrownoutEnters, s.BrownoutExits)
	}
	fmt.Printf("  failovers %d (max same-round depth %d), breaker trips %d, probes %d, repairs %d\n",
		s.Failovers, rep.MaxSameRoundFailovers, s.Trips, s.Probes, s.Repairs)
	fmt.Printf("  round latency p50 %d, p99 %d, p999 %d  hedges %d (%d won), slow convictions %d, canaries %d\n",
		s.Latency.P50(), s.Latency.P99(), s.Latency.P999(), s.Hedges, s.HedgeWins, s.SlowConvictions, s.Canaries)
	if *deadline > 0 {
		fmt.Printf("  deadline %d rounds: %d deliveries missed the budget\n", *deadline, s.DeadlineMissed)
	}
	if *crashes > 0 || *drains > 0 {
		c := rep.Crash
		fmt.Printf("  crash plane: %d crashes, %d drain/rejoin cycles, journaled=%v\n",
			c.Crashes, c.DrainCycles, !*unjournaled)
		fmt.Printf("    snapshots %d written / %d restored, torn tails %d (%d bytes discarded), stale rounds %d, journal %d bytes\n",
			c.SnapshotsWritten, c.SnapshotsRestored, c.TornTails, c.TornBytesDiscarded, c.StaleRounds, c.JournalBytes)
		fmt.Printf("    lost to crashes: %d delivered-ledger entries, %d backlogged clients (true delivered %d)\n",
			c.DeliveredLost, c.BacklogLost, c.TrueDelivered)
	}
	if *partitions > 0 {
		pr := rep.Partition
		fmt.Printf("  partition plane: %d cuts / %d heals, lease %d rounds, fenced=%v\n",
			pr.Partitions, pr.Heals, pr.LeaseRounds, !*unfenced)
		fmt.Printf("    lease handoffs %d (token %d), frozen rounds %d, dual-primary rounds %d\n",
			pr.LeaseHandoffs, s.FenceToken, pr.FrozenRounds, pr.DualPrimaryRounds)
		fmt.Printf("    fenced %d, stale delivered %d, shadow served %d, in-flight acks %d (true served %d)\n",
			s.Fenced, s.StaleDelivered, s.ShadowServed, s.InFlightAcks, pr.TrueServed)
	}
	if *byzantine > 0 {
		fmt.Printf("  byzantine plane: %d lie windows, verified=%v\n", b.Windows, b.Verified)
		fmt.Printf("    injected %d misrouted, %d replayed, %d fabricated; edge rejected %d forged, %d duplicated\n",
			b.Misrouted, b.Replayed, b.Fabricated, b.Forged, b.Duplicated)
		fmt.Printf("    witness audits %d (%d disagreements, %d convictions), equivocations caught %d\n",
			b.Audits, b.AuditDisagreements, b.WitnessConvictions, b.Equivocations)
		fmt.Printf("    ledger booked %d vs %d physically delivered\n", b.Booked, b.TrueDelivered)
	}
	for i, rs := range s.Replicas {
		killed := ""
		if rs.Killed {
			killed = " (powered off)"
		}
		fmt.Printf("  replica %d: state %s%s, threshold %d, served %d rounds, %d trips, %d repairs\n",
			i, rs.State, killed, rs.Threshold, rs.RoundsServed, rs.Trips, rs.Repairs)
	}

	if len(rep.Regressions) > 0 {
		fmt.Fprintf(os.Stderr, "guarantee regressed on %d rounds:\n", len(rep.Regressions))
		for _, r := range rep.Regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(cli.ExitViolation)
	}
	if breach != "" {
		cli.Fatal(cli.ExitViolation, "%s", breach)
	}
	fmt.Printf("delivery guarantee held on every round (replay with -seed %d)\n", *seed)
}

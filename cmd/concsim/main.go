// Command concsim simulates bit-serial message traffic through a
// chosen concentrator switch and reports delivery statistics. The
// replicated pool of switches is concpool's to drive.
//
// Usage examples:
//
//	concsim -switch revsort -n 1024 -m 512 -load 0.4 -rounds 100
//	concsim -switch columnsort -n 1024 -m 512 -beta 0.75 -load 0.9
//	concsim -switch perfect -n 256 -m 64 -load 0.5 -payload 64
//	concsim -switch full-revsort -n 4096 -load 0.7
//	concsim -switch revsort -n 1024 -m 512 -faults 3 -mtbf 25 -scan-every 10
//	concsim -switch revsort -n 1024 -m 512 -ber 1e-3 -crc crc16 -arq-window 8
//	concsim -switch revsort -n 1024 -m 512 -ber 1e-3 -adaptive-rto -deadline 8
//	concsim -switch columnsort -n 256 -m 128 -policy resend -surge 4 -retry-budget 0.2 -codel-target 3 -codel-interval 6
//
// Exit status follows the shared cli contract: 0 on success, 1 on
// usage or construction errors, 2 when the run observed a delivery-
// guarantee (or conservation) violation.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"concentrators/cmd/internal/cli"
	"concentrators/internal/bitonic"
	"concentrators/internal/core"
	"concentrators/internal/health"
	"concentrators/internal/journal"
	"concentrators/internal/link"
	"concentrators/internal/overload"
	"concentrators/internal/seedrand"
	"concentrators/internal/switchsim"
)

func main() {
	kind := flag.String("switch", "columnsort", "switch design: perfect | crossbar | revsort | columnsort | full-revsort | full-columnsort | bitonic")
	n := flag.Int("n", 1024, "number of input wires")
	m := flag.Int("m", 0, "number of output wires (default n/2; n for full sorters)")
	beta := flag.Float64("beta", 0.5, "columnsort shape parameter β ∈ [1/2, 1]")
	load := flag.Float64("load", 0.5, "per-input message probability")
	payload := flag.Int("payload", 32, "payload length in bits")
	rounds := flag.Int("rounds", 50, "number of setup-and-stream rounds")
	seed := flag.Int64("seed", 1, "random seed")
	policy := flag.String("policy", "", "run a multi-round congestion session instead: drop | resend | buffer | misroute")
	ack := flag.Int("ack", 2, "ack round trip for the resend policy")
	wave := flag.Bool("wave", false, "print the first round's output waveforms")
	faults := flag.Int("faults", 0, "run a fault-aware session with up to this many scheduled chip faults (revsort/columnsort only)")
	mtbf := flag.Float64("mtbf", 25, "mean rounds between chip failures for the fault schedule")
	scanEvery := flag.Int("scan-every", 10, "run a BIST health scan every this many rounds (0 disables periodic scans)")
	ber := flag.Float64("ber", 0, "ambient wire bit-error rate: run a data-plane integrity session (CRC-framed payloads, sliding-window ARQ, link escalation)")
	crc := flag.String("crc", "crc16", "integrity-session frame checksum: crc8 | crc16 | none")
	arqWindow := flag.Int("arq-window", 4, "integrity-session ARQ sliding-window size")
	deadline := flag.Int("deadline", 0, "per-message deadline budget in rounds; late deliveries are booked DeadlineMissed (0 disables the SLO ledger)")
	adaptiveRTO := flag.Bool("adaptive-rto", false, "integrity session: adapt the ARQ retransmit timer with a Jacobson/Karn RTT estimator instead of the fixed backoff")
	surge := flag.Float64("surge", 0, "session mode: multiply the offered load by this factor from one fifth of the way in (0 disables the surge plane)")
	surgeShape := flag.String("surge-shape", "sustained", "session mode: surge shape — step | ramp | flash | sustained")
	retryBudget := flag.Float64("retry-budget", 0, "resend sessions: retry-budget tokens earned per fresh offer; denied retries are shed instead of re-queued (0 disables, the open loop)")
	codelTarget := flag.Int("codel-target", 0, "resend/buffer sessions: CoDel sojourn target in rounds (0 disables the backlog drain)")
	codelInterval := flag.Int("codel-interval", 0, "resend/buffer sessions: CoDel interval in rounds (default 4× target)")
	crashes := flag.Int("crashes", 0, "run a crash-restart durability session: kill and recover the process this many times at seeded (round, phase) points")
	snapshotEvery := flag.Int("snapshot-every", 0, "durability session: rounds between full journal snapshots (default 16)")
	unjournaled := flag.Bool("unjournaled", false, "durability session: disable the journal so crashes lose ledger and backlog (the experimental control)")
	compact := flag.Bool("compact", false, "durability session: truncate the journal to the snapshot on every snapshot append (O(state) journal)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON stats instead of prose (default, session, and durability modes)")
	cli.Parse("concsim")

	if *m == 0 {
		*m = *n / 2
		if *kind == "full-revsort" || *kind == "full-columnsort" {
			*m = *n
		}
	}

	sw, err := buildSwitch(*kind, *n, *m, *beta)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}

	if !*jsonOut {
		fmt.Printf("switch: %s  n=%d m=%d ε=%d α=%.4f  delay=%d gate delays across %d chips (%d chips total)\n",
			sw.Name(), sw.Inputs(), sw.Outputs(), sw.EpsilonBound(), core.LoadRatio(sw),
			sw.GateDelays(), sw.ChipsTraversed(), sw.ChipCount())
	}

	durable := *crashes > 0 || *unjournaled || *compact || *snapshotEvery > 0
	if *ber > 0 || *faults > 0 || durable || *policy != "" {
		// Every session mode runs the one config the session flags
		// build; a layer its driver cannot run fails validation.
		if *policy == "" {
			*policy = "resend"
		}
		cfg := switchsim.SessionConfig{
			Policy: parsePolicy(*policy), Load: *load, Rounds: *rounds, PayloadBits: *payload,
			Seed: *seed, Deadline: *deadline,
			Surge: surgePlane(*surge, *surgeShape, *rounds, *seed),
		}
		if cfg.Policy == switchsim.Resend {
			cfg.AckDelay = *ack // the only policy with an acknowledgment protocol
		}
		if *retryBudget > 0 {
			cfg.RetryBudget = &overload.RetryConfig{Budget: *retryBudget}
		}
		if *codelTarget > 0 {
			cfg.CoDel = &overload.CoDelConfig{Target: *codelTarget, Interval: *codelInterval}
			if *codelInterval == 0 {
				cfg.CoDel.Interval = 4 * *codelTarget
			}
		}
		switch {
		case *ber > 0:
			if *jsonOut {
				cli.Fatal(cli.ExitUsage, "-json is not supported in integrity (-ber) mode")
			}
			runIntegrity(sw, cfg, *ber, *crc, *arqWindow, *adaptiveRTO)
		case *faults > 0:
			if *jsonOut {
				cli.Fatal(cli.ExitUsage, "-json is not supported in fault-session (-faults) mode")
			}
			runFaultSession(sw, cfg, *faults, *mtbf, *scanEvery)
		case durable:
			runDurable(sw, cfg, *crashes, *snapshotEvery, *unjournaled, *compact, *jsonOut)
		default:
			runSession(sw, cfg, *jsonOut)
		}
		return
	}
	if *surge > 0 || *retryBudget > 0 || *codelTarget > 0 {
		fmt.Fprintln(os.Stderr, "-surge, -retry-budget, and -codel-target drive the session mode: pass -policy (e.g. -policy resend)")
		os.Exit(cli.ExitUsage)
	}

	stream := seedrand.NewStream(*seed)
	var sent, delivered, droppedRounds, cycles int
	for round := 0; round < *rounds; round++ {
		msgs := switchsim.RandomMessages(&stream, *n, *load, *payload)
		if len(msgs) == 0 {
			if *wave && round == 0 {
				// An empty first round still has a waveform: every wire
				// idle after the setup cycle. It adds nothing to the tallies.
				res, err := switchsim.Run(sw, nil)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(cli.ExitUsage)
				}
				writeWave(res, sw.Outputs())
			}
			continue
		}
		res, err := switchsim.Run(sw, msgs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(cli.ExitUsage)
		}
		if err := switchsim.CheckGuarantee(sw, msgs, res); err != nil {
			fmt.Fprintf(os.Stderr, "guarantee violated: %v\n", err)
			os.Exit(cli.ExitViolation)
		}
		if *wave && round == 0 {
			writeWave(res, sw.Outputs())
		}
		sent += len(msgs)
		delivered += len(res.Delivered)
		if len(res.DroppedInputs) > 0 {
			droppedRounds++
		}
		cycles += res.Cycles
	}
	if *jsonOut {
		cli.EmitJSON(struct {
			Mode       string `json:"mode"`
			Switch     string `json:"switch"`
			N, M       int
			Rounds     int
			Sent       int
			Delivered  int
			DropRounds int
			Cycles     int
			Threshold  int
		}{"run", sw.Name(), sw.Inputs(), sw.Outputs(), *rounds, sent, delivered, droppedRounds, cycles, core.Threshold(sw)})
		return
	}
	fmt.Printf("rounds: %d  messages sent: %d  delivered: %d (%.2f%%)  rounds with drops: %d  total cycles: %d\n",
		*rounds, sent, delivered, 100*float64(delivered)/float64(max(sent, 1)), droppedRounds, cycles)
	fmt.Printf("delivery guarantee (m−ε = %d per round) verified on every round\n", core.Threshold(sw))
}

// writeWave prints a round's waveforms, one row per output wire, cut
// at 64 cycles.
func writeWave(res *switchsim.Result, outputs int) {
	if err := res.WriteWaveform(os.Stdout, outputs, 64); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}
}

func buildSwitch(kind string, n, m int, beta float64) (core.Concentrator, error) {
	switch kind {
	case "perfect":
		return core.NewPerfectSwitch(n, m)
	case "crossbar":
		return core.NewCrossbar(n, m)
	case "revsort":
		return core.NewRevsortSwitch(n, m)
	case "columnsort":
		return core.NewColumnsortSwitchBeta(n, m, beta)
	case "full-revsort":
		return core.NewFullRevsortHyper(n, m)
	case "full-columnsort":
		r, s, err := core.ShapeForBeta(n, beta)
		if err != nil {
			return nil, err
		}
		return core.NewFullColumnsortHyper(r, s, m)
	case "bitonic":
		return bitonic.NewSwitch(n, m)
	default:
		return nil, fmt.Errorf("unknown switch %q", kind)
	}
}

func parsePolicy(policy string) switchsim.Policy {
	switch policy {
	case "drop":
		return switchsim.Drop
	case "resend":
		return switchsim.Resend
	case "buffer":
		return switchsim.Buffer
	case "misroute":
		return switchsim.Misroute
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", policy)
		os.Exit(cli.ExitUsage)
		panic("unreachable")
	}
}

// surgePlane builds the session's surge plane from the -surge flags.
func surgePlane(factor float64, shape string, rounds int, seed int64) *overload.Plane {
	if factor == 0 {
		return nil
	}
	f := overload.Fault{Factor: factor, From: rounds / 5}
	switch shape {
	case "step":
		f.Mode, f.Until = overload.Step, rounds-rounds/5
	case "ramp":
		f.Mode, f.Until = overload.Ramp, rounds
	case "flash":
		f.Mode, f.Prob, f.From = overload.Flash, 0.35, 0
	case "sustained":
		f.Mode = overload.Sustained
	default:
		fmt.Fprintf(os.Stderr, "unknown surge shape %q (want step | ramp | flash | sustained)\n", shape)
		os.Exit(cli.ExitUsage)
	}
	p := overload.NewPlane(seed)
	if err := p.Add(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}
	return p
}

// checkSessionConservation enforces the eight-term conservation law
// Offered = Delivered + Dropped + CorruptedDropped + DeadlineMissed +
// Shed + Fenced + Forged + Duplicated + FinalBacklog, exiting
// ExitViolation on breach. Plain sessions run a single trusted switch
// and never fence, forge, or duplicate (those terms are always 0
// here); the pool's lease-fenced failover and verified byzantine
// ledger book them.
func checkSessionConservation(stats *switchsim.SessionStats) {
	if got := stats.Delivered + stats.Dropped + stats.CorruptedDropped + stats.DeadlineMissed +
		stats.Shed + stats.Fenced + stats.Forged + stats.Duplicated + stats.FinalBacklog; got != stats.Offered {
		cli.Fatal(cli.ExitViolation,
			"conservation violated: delivered %d + lost %d + corrupted %d + missed %d + shed %d + fenced %d + forged %d + duplicated %d + backlog %d != offered %d",
			stats.Delivered, stats.Dropped, stats.CorruptedDropped, stats.DeadlineMissed,
			stats.Shed, stats.Fenced, stats.Forged, stats.Duplicated, stats.FinalBacklog, stats.Offered)
	}
}

// printLayers prints the ledger lines of the overload and deadline
// layers cfg sets.
func printLayers(cfg switchsim.SessionConfig, stats *switchsim.SessionStats) {
	if cfg.RetryBudget != nil || cfg.CoDel != nil {
		fmt.Printf("  shed %d (retry-budget denials + CoDel drops), final backlog %d\n",
			stats.Shed, stats.FinalBacklog)
	}
	if cfg.Deadline > 0 {
		fmt.Printf("  deadline %d rounds: %d deliveries missed the budget\n", cfg.Deadline, stats.DeadlineMissed)
	}
}

// printSurge lists the surge plane's faults (none without a plane).
func printSurge(cfg switchsim.SessionConfig) {
	if cfg.Surge == nil {
		return
	}
	for _, f := range cfg.Surge.Faults() {
		fmt.Printf("  surge: %s\n", f)
	}
}

// runSession executes the multi-round congestion-control mode.
func runSession(sw core.Concentrator, cfg switchsim.SessionConfig, jsonOut bool) {
	stats, err := switchsim.RunSession(sw, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}
	if jsonOut {
		checkSessionConservation(stats)
		cli.EmitJSON(struct {
			Mode   string `json:"mode"`
			Switch string `json:"switch"`
			Load   float64
			Stats  *switchsim.SessionStats
		}{"session", sw.Name(), cfg.Load, stats})
		return
	}
	fmt.Printf("session: policy=%s load=%.2f rounds=%d\n", cfg.Policy, cfg.Load, cfg.Rounds)
	printSurge(cfg)
	fmt.Printf("  offered %d, delivered %d, lost %d, refused %d, retries %d\n",
		stats.Offered, stats.Delivered, stats.Dropped, stats.Refused, stats.Retries)
	fmt.Printf("  mean latency %.2f rounds (p50 %d, p99 %d, p999 %d), peak backlog %d\n",
		stats.MeanLatency(), stats.P50(), stats.P99(), stats.P999(), stats.MaxBacklog)
	printLayers(cfg, stats)
	checkSessionConservation(stats)
	fmt.Printf("conservation verified: offered = delivered + lost + corrupted + missed + shed + backlog\n")
}

// runDurable executes the crash-restart durability mode: a congestion
// session with a snapshot + write-ahead journal, a seeded crash
// schedule killing the process at deterministic (round, phase) points,
// and exactly-once recovery — or, with -unjournaled, the experimental
// control that demonstrably loses state.
func runDurable(sw core.Concentrator, cfg switchsim.SessionConfig, crashes, snapshotEvery int, unjournaled, compact, jsonOut bool) {
	jcfg := journal.Config{
		SnapshotEvery: snapshotEvery, Compact: compact, Unjournaled: unjournaled,
		Crash: journal.GenerateCrashSchedule(cfg.Seed, cfg.Rounds, crashes),
	}
	stats, rec, err := switchsim.RunDurableSession(sw, cfg, jcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}
	if jsonOut {
		checkDurableLedger(stats, rec, unjournaled)
		cli.EmitJSON(struct {
			Mode     string `json:"mode"`
			Switch   string `json:"switch"`
			Load     float64
			Stats    *switchsim.SessionStats
			Recovery *journal.RecoveryStats
		}{"durable", sw.Name(), cfg.Load, stats, rec})
		return
	}
	fmt.Printf("durable session: policy=%s load=%.2f rounds=%d crashes=%d journaled=%v\n",
		cfg.Policy, cfg.Load, cfg.Rounds, crashes, !unjournaled)
	printSurge(cfg)
	for _, f := range jcfg.Crash.Faults() {
		fmt.Printf("  %s\n", f)
	}
	fmt.Printf("  offered %d, delivered %d, lost %d, shed %d, final backlog %d\n",
		stats.Offered, stats.Delivered, stats.Dropped, stats.Shed, stats.FinalBacklog)
	fmt.Printf("  incarnations %d (%d crashes), snapshots %d, deltas %d, journal %d bytes\n",
		rec.Incarnations, rec.Crashes, rec.SnapshotsWritten, rec.DeltasWritten, rec.JournalBytes)
	fmt.Printf("  recovery: %d snapshots restored, %d records replayed, %d rounds re-executed, %d torn tails (%d bytes discarded)\n",
		rec.SnapshotsRestored, rec.RecordsReplayed, rec.RoundsReexecuted, rec.TornTails, rec.TornBytesDiscarded)
	if unjournaled {
		fmt.Printf("  lost to crashes: %d ledger entries, %d backlogged messages\n",
			rec.LedgerLostAtCrash, rec.BacklogLostAtCrash)
	}
	checkDurableLedger(stats, rec, unjournaled)
	if unjournaled {
		fmt.Printf("unjournaled control: surviving ledger + crash losses account for the %d true offers\n", rec.TrueOffered)
	} else {
		fmt.Printf("exactly-once verified: recovered ledger matches the %d true offers across %d incarnations\n",
			rec.TrueOffered, rec.Incarnations)
	}
}

// checkDurableLedger enforces the cross-incarnation accounting laws,
// exiting 2 on violation: the six-term conservation law on the
// recovered ledger, and the ground-truth audit (journaled runs must
// account for every true offer; unjournaled runs must account for them
// as surviving ledger plus booked crash losses).
func checkDurableLedger(stats *switchsim.SessionStats, rec *journal.RecoveryStats, unjournaled bool) {
	checkSessionConservation(stats)
	if unjournaled {
		if stats.Offered+rec.LedgerLostAtCrash != rec.TrueOffered {
			fmt.Fprintf(os.Stderr, "loss accounting violated: surviving ledger %d + lost %d != true offered %d\n",
				stats.Offered, rec.LedgerLostAtCrash, rec.TrueOffered)
			os.Exit(cli.ExitViolation)
		}
		return
	}
	if stats.Offered != rec.TrueOffered {
		fmt.Fprintf(os.Stderr, "exactly-once violated: recovered ledger offered %d != harness ground truth %d\n",
			stats.Offered, rec.TrueOffered)
		os.Exit(cli.ExitViolation)
	}
}

// runFaultSession executes the fault-aware session mode: scheduled
// chip faults strike the switch mid-stream while BIST scans detect,
// localize, and degrade around them.
func runFaultSession(sw core.Concentrator, cfg switchsim.SessionConfig, faults int, mtbf float64, scanEvery int) {
	fi, ok := sw.(core.FaultInjectable)
	if !ok {
		fmt.Fprintf(os.Stderr, "-faults needs a multichip fault-injectable switch (revsort or columnsort), not %s\n", sw.Name())
		os.Exit(cli.ExitUsage)
	}
	schedule := health.GenerateFaultSchedule(cfg.Seed, fi, mtbf, cfg.Rounds, faults)
	stats, err := health.RunFaultAwareSession(fi, health.FaultSessionConfig{
		SessionConfig: cfg,
		Schedule:      schedule,
		ScanEvery:     scanEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}
	fmt.Printf("fault session: policy=%s load=%.2f rounds=%d mtbf=%.1f scan-every=%d\n",
		cfg.Policy, cfg.Load, cfg.Rounds, mtbf, scanEvery)
	printSurge(cfg)
	fmt.Printf("  offered %d, delivered %d, lost %d, refused %d, retries %d\n",
		stats.Offered, stats.Delivered, stats.Dropped, stats.Refused, stats.Retries)
	fmt.Printf("  mean latency %.2f rounds (p50 %d, p99 %d, p999 %d), peak backlog %d\n",
		stats.MeanLatency(), stats.P50(), stats.P99(), stats.P999(), stats.MaxBacklog)
	printLayers(cfg, &stats.SessionStats)
	fmt.Printf("  faults injected %d, detected %d, contract violations %d\n",
		stats.FaultsInjected, stats.FaultsDetected, stats.GuaranteeViolations)
	for _, det := range stats.Detections {
		fmt.Printf("    round %3d (latency %d): %s\n", det.Round, det.LatencyRounds, det.Fault)
	}
	fmt.Printf("  lost before detection %d, after detection %d\n",
		stats.LostBeforeDetection, stats.LostAfterDetection)
	fmt.Printf("  scans %d (%d routes, %.2f%% overhead)\n",
		stats.Scans, stats.ScanRoutes, 100*stats.ScanOverhead)
	fmt.Printf("  degraded contract: m′=%d threshold=%d α′=%.4f\n",
		stats.DegradedOutputs, stats.DegradedThreshold, stats.PostDegradationAlpha)
	checkSessionConservation(&stats.SessionStats)
	if stats.LostAfterDetection > 0 {
		fmt.Fprintf(os.Stderr, "guarantee violated: %d messages lost after degradation should have covered the faults\n",
			stats.LostAfterDetection)
		os.Exit(cli.ExitViolation)
	}
}

// runIntegrity executes the wire-level data-plane integrity mode:
// ambient bit noise at the given BER on every link, CRC-framed
// payloads, sliding-window ARQ recovery, and EWMA link escalation into
// the health plane's quarantine machinery.
func runIntegrity(sw core.Concentrator, cfg switchsim.SessionConfig, ber float64, crcName string, window int, adaptiveRTO bool) {
	fi, ok := sw.(core.FaultInjectable)
	if !ok {
		fmt.Fprintf(os.Stderr, "-ber needs a multichip fault-injectable switch (revsort or columnsort), not %s\n", sw.Name())
		os.Exit(cli.ExitUsage)
	}
	crcSel, err := link.ParseCRC(crcName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}
	plane := link.NewCorruptionPlane(cfg.Seed)
	if err := plane.Add(link.WireFault{
		Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: ber,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}
	// Ambient noise touches every link, so the healthy baseline is a
	// nonzero per-frame corruption rate: 1−(1−BER)^(frame bits × links
	// crossed). The monitor's conviction threshold sits well above that
	// baseline so it only convicts links persistently much worse than
	// the ambient floor — ARQ absorbs the floor — while a genuinely
	// stuck or near-saturated wire (rate → 1) is still escalated.
	frameBits := cfg.PayloadBits + link.FrameOverhead(crcSel)
	pathLinks := len(fi.StageChips()) + 1
	baseline := 1 - math.Pow(1-ber, float64(frameBits*pathLinks))
	threshold := min(0.95, 0.3+4*baseline)
	if cfg.Policy == switchsim.Resend {
		cfg.AckDelay = max(cfg.AckDelay, 1) // ARQ needs an ack round trip
	}
	cfg.Integrity = &switchsim.IntegrityConfig{
		CRC: crcSel, Window: window, Corruption: plane,
		Monitor:     link.MonitorConfig{Threshold: threshold, MinFrames: 32},
		AdaptiveRTO: adaptiveRTO,
	}
	stats, err := health.RunIntegritySession(fi, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitUsage)
	}
	ist := stats.Integrity
	fmt.Printf("integrity session: ber=%g crc=%s window=%d load=%.2f rounds=%d\n",
		ber, ist.CRC, ist.Window, cfg.Load, cfg.Rounds)
	printSurge(cfg)
	fmt.Printf("  offered %d, delivered %d (%d retried), lost %d, corrupted-dropped %d, backlog %d\n",
		stats.Offered, stats.Delivered, stats.RetriedDelivered, stats.Dropped,
		stats.CorruptedDropped, ist.FinalBacklog)
	fmt.Printf("  frames %d (%d retransmits, %d timeouts), crc rejections %d, erasures %d, dups suppressed %d\n",
		ist.FramesSent, ist.Retransmits, ist.Timeouts, ist.CorruptedDetected, ist.Erasures,
		ist.DuplicatesSuppressed)
	fmt.Printf("  mean latency %.2f rounds (p50 %d, p99 %d, p999 %d; first-try vs retried split tracked)\n",
		stats.MeanLatency(), stats.P50(), stats.P99(), stats.P999())
	if adaptiveRTO {
		fmt.Printf("  adaptive RTO: %d clean RTT samples, %d Karn-rejected, final timer %d rounds\n",
			ist.RTTSamples, ist.KarnRejected, ist.FinalRTO)
	}
	printLayers(cfg, stats)
	fmt.Printf("  links quarantined %d (inputs %v, scan routes %d), serving contract m′=%d threshold=%d\n",
		ist.LinksQuarantined, ist.InputsQuarantined, ist.ScanRoutes, ist.LiveOutputs, ist.LiveThreshold)
	checkSessionConservation(stats)
	if ist.CorruptedDelivered > 0 {
		fmt.Fprintf(os.Stderr, "guarantee violated: %d corrupted payloads delivered past the checksum\n",
			ist.CorruptedDelivered)
		os.Exit(cli.ExitViolation)
	}
	fmt.Printf("conservation verified: offered = delivered + lost + corrupted-dropped + deadline-missed + backlog\n")
}

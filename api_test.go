package concentrators

import (
	"strings"
	"testing"
)

// The public facade must be sufficient on its own: build the Figure 6
// switch, stream messages, verify the guarantee, and print packaging —
// using only root-package identifiers.
func TestPublicAPIEndToEnd(t *testing.T) {
	sw, err := NewColumnsortSwitch(8, 4, 18)
	if err != nil {
		t.Fatal(err)
	}
	if LoadRatio(sw) != 0.5 || GuaranteeThreshold(sw) != 9 {
		t.Errorf("α = %v, threshold = %d", LoadRatio(sw), GuaranteeThreshold(sw))
	}

	msgs := []Message{
		NewMessage(2, []byte("ab")),
		NewMessage(17, []byte("cd")),
	}
	res, err := Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGuarantee(sw, msgs, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) != 2 {
		t.Fatalf("delivered %d", len(res.Delivered))
	}
	for _, d := range res.Delivered {
		if got := string(DecodePayload(d.Payload)); got != "ab" && got != "cd" {
			t.Errorf("payload %q", got)
		}
	}

	pkg, err := ColumnsortPackage(8, 4, 18)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pkg.String(), "columnsort") {
		t.Error("packaging report wrong")
	}
}

func TestPublicAPIValidBits(t *testing.T) {
	v, err := ParseValidBits("0101")
	if err != nil || v.Count() != 2 {
		t.Fatalf("ParseValidBits: %v, %v", v, err)
	}
	if NewValidBits(8).Len() != 8 {
		t.Error("NewValidBits wrong length")
	}
	sw, err := NewPerfectSwitch(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Route(v)
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for _, o := range out {
		if o >= 0 {
			routed++
		}
	}
	if routed != 2 {
		t.Errorf("routed %d", routed)
	}
}

func TestPublicAPISession(t *testing.T) {
	sw, err := NewPerfectSwitch(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{Drop, Resend, Buffer, Misroute} {
		ack := 0
		if pol == Resend {
			ack = 1
		}
		stats, err := RunSession(sw, SessionConfig{
			Policy: pol, Load: 0.5, Rounds: 30, PayloadBits: 4, Seed: 5, AckDelay: ack,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Offered == 0 || stats.Delivered == 0 {
			t.Fatalf("%v: no traffic", pol)
		}
	}
}

// The pool facade end-to-end: build a replicated pool, kill the
// primary mid-stream, and watch the arbiter fail over without losing
// the round — then replay a seeded chaos schedule through the public
// chaos wrappers.
func TestPublicAPISwitchPool(t *testing.T) {
	build := func() (FaultInjectable, error) {
		return NewColumnsortSwitchBeta(64, 32, 0.75)
	}
	replicas := make([]FaultInjectable, 2)
	for i := range replicas {
		fi, err := build()
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = fi
	}
	p, err := NewSwitchPool(PoolConfig{TripThreshold: 1, ProbeAfter: 1}, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{NewMessage(0, []byte("a")), NewMessage(1, []byte("b"))}
	rr, err := p.Run(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if rr.ServedBy != 0 || len(rr.Result.Delivered) != 2 {
		t.Fatalf("healthy pool round: %+v", rr)
	}
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	rr, err = p.Run(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if rr.ServedBy != 1 || rr.Violated || len(rr.Result.Delivered) != 2 {
		t.Fatalf("failover round: %+v", rr)
	}
	if states := p.States(); states[1] != ReplicaHealthy {
		t.Fatalf("replica 1 state %v after serving", states[1])
	}
	if s := p.Stats(); s.Failovers == 0 {
		t.Fatalf("stats missed the failover: %+v", s)
	}

	probe, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChaosConfig{Replicas: 2, Rounds: 40, Load: 0.5, PayloadBits: 4, Seed: 11, Faults: 1, Kills: 1}
	events, err := GenerateChaosSchedule(cfg.Seed, probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunChaos(build, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != cfg.Rounds {
		t.Fatalf("chaos recorded %d rounds, want %d", len(rep.Rounds), cfg.Rounds)
	}
}

// The wire-integrity facade end-to-end: frame round-trip, a corrupted
// session that recovers every loss through ARQ, and pool-level wire
// fault injection.
func TestPublicAPIIntegrity(t *testing.T) {
	frame := EncodeFrame(CRC16, 7, []byte{1, 0, 1, 1})
	if len(frame) != 4+FrameOverhead(CRC16) {
		t.Fatalf("frame length %d", len(frame))
	}
	seq, payload, ok, err := DecodeFrame(CRC16, frame)
	if err != nil || !ok || seq != 7 || len(payload) != 4 {
		t.Fatalf("frame round-trip: seq=%d ok=%v err=%v", seq, ok, err)
	}

	sw, err := NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	plane := NewCorruptionPlane(9)
	if err := plane.Add(WireFault{Stage: AllStages, Wire: AllWires, Mode: WireBitFlip, BER: 0.005}); err != nil {
		t.Fatal(err)
	}
	stats, err := RunIntegritySession(sw, SessionConfig{
		Policy: Resend, Load: 0.4, Rounds: 40, PayloadBits: 8, Seed: 2, AckDelay: 1,
		Integrity: &IntegrityConfig{
			CRC: CRC16, Window: 4, Corruption: plane,
			// Ambient noise: disable link conviction, ARQ carries it.
			Monitor: LinkMonitorConfig{Threshold: 0.999},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ist := stats.Integrity
	if ist == nil || ist.CorruptedDetected == 0 {
		t.Fatalf("corruption never observed: %+v", ist)
	}
	if ist.CorruptedDelivered != 0 {
		t.Fatalf("%d corrupted payloads delivered", ist.CorruptedDelivered)
	}
	if got := stats.Delivered + stats.Dropped + stats.CorruptedDropped + ist.FinalBacklog; got != stats.Offered {
		t.Fatalf("conservation: %d != offered %d", got, stats.Offered)
	}
	if stats.RetriedDelivered == 0 {
		t.Fatal("ARQ never recovered a loss")
	}

	// Pool-level wire fault injection through the facade.
	replicas := make([]FaultInjectable, 2)
	for i := range replicas {
		fi, err := NewColumnsortSwitchBeta(64, 32, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = fi
	}
	p, err := NewSwitchPool(PoolConfig{}, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectWireFault(0, WireFault{Stage: 0, Wire: 0, Mode: WireStuck}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]Message{NewMessage(0, []byte("x"))}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.CorruptedDeliveries == 0 && s.Delivered == 0 {
		t.Fatalf("pool round went nowhere: %+v", s)
	}
}

func TestPublicAPITable1(t *testing.T) {
	rows, err := Table1(1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "Revsort") {
		t.Error("Table 1 rendering wrong")
	}
}

func TestPublicAPIAllConstructors(t *testing.T) {
	stream := NewRandStream(1)
	builders := []func() (Concentrator, error){
		func() (Concentrator, error) { return NewPerfectSwitch(64, 32) },
		func() (Concentrator, error) { return NewCrossbar(64, 32) },
		func() (Concentrator, error) { return NewRevsortSwitch(64, 32) },
		func() (Concentrator, error) { return NewColumnsortSwitch(16, 4, 32) },
		func() (Concentrator, error) { return NewColumnsortSwitchBeta(64, 32, 0.75) },
		func() (Concentrator, error) { return NewFullRevsortHyper(64, 64) },
		func() (Concentrator, error) { return NewFullColumnsortHyper(32, 2, 64) },
	}
	for i, mk := range builders {
		sw, err := mk()
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		msgs := RandomMessages(&stream, sw.Inputs(), 0.3, 8)
		if len(msgs) == 0 {
			continue
		}
		res, err := Run(sw, msgs)
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		if err := CheckGuarantee(sw, msgs, res); err != nil {
			t.Fatalf("builder %d (%s): %v", i, sw.Name(), err)
		}
	}
}

// The gray-failure facade end-to-end: a timing fault plane stalls one
// replica of a hedged pool, the spare absorbs the tail inside the
// deadline budget, and the estimator/histogram/detector helpers work
// from root-package identifiers alone.
func TestPublicAPIGrayFailure(t *testing.T) {
	replicas := make([]FaultInjectable, 2)
	for i := range replicas {
		fi, err := NewColumnsortSwitchBeta(64, 32, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = fi
	}
	p, err := NewSwitchPool(PoolConfig{HedgeQuantile: 0.9, HedgeBudget: 1, Deadline: 5}, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	stall := TimingFault{Stage: 0, Wire: AllWires, Mode: TimingConstant, Delay: 10}
	if err := p.InjectTimingFault(0, stall); err != nil {
		t.Fatal(err)
	}
	stream := NewRandStream(7)
	for round := 0; round < 60; round++ {
		if _, err := p.Run(RandomMessages(&stream, 64, 0.4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Hedges == 0 || s.HedgeWins == 0 {
		t.Fatalf("stalled pool never hedged: %+v", s)
	}
	if s.DeadlineMissed != 0 {
		t.Fatalf("%d deliveries missed the deadline despite hedging", s.DeadlineMissed)
	}
	if s.Latency.P999() > 5 {
		t.Fatalf("pool p999 %d past the deadline budget", s.Latency.P999())
	}

	plane := NewTimingPlane(1)
	if err := plane.Add(stall); err != nil {
		t.Fatal(err)
	}
	if d := plane.RoundDelay(0, len(replicas[1].StageChips())); d != 10 {
		t.Fatalf("plane round delay %d, want 10", d)
	}
	est := NewRTTEstimator()
	est.Sample(4, false)
	if !est.Primed() || est.RTO() < 4 {
		t.Fatalf("estimator not primed after a clean sample: RTO %d", est.RTO())
	}
	det, err := NewSlowDetector(2)
	if err != nil {
		t.Fatal(err)
	}
	var convicted []int
	for i := 0; i < 16; i++ {
		det.Observe(0, 1)
		det.Observe(1, 20)
		convicted = append(convicted, det.Sweep()...)
	}
	if len(convicted) != 1 || convicted[0] != 1 {
		t.Fatalf("detector convicted %v, want [1]", convicted)
	}
}

// The overload facade end-to-end: a seeded surge plane drives a
// closed-loop overload session against a pool through root-package
// identifiers alone, and the session ledger conserves.
func TestPublicAPIOverload(t *testing.T) {
	plane := NewSurgePlane(9)
	for _, f := range []SurgeFault{
		{Mode: SurgeSustained, Factor: 4, From: 10},
		{Mode: SurgeFlash, Factor: 6, Prob: 0.25, From: 0},
	} {
		if err := plane.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if plane.Len() != 2 {
		t.Fatalf("plane holds %d faults, want 2", plane.Len())
	}
	if got := plane.Multiplier(0); got < 1 {
		t.Fatalf("pre-surge multiplier %v < 1", got)
	}
	if got := plane.Multiplier(20); got < 4 {
		t.Fatalf("surge multiplier %v < 4", got)
	}
	if bad := (SurgeFault{Mode: SurgeStep, Factor: 2}); bad.Validate() == nil {
		t.Fatal("unbounded step fault accepted")
	}

	fi, err := NewColumnsortSwitchBeta(64, 16, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSwitchPool(PoolConfig{Overload: &OverloadConfig{}}, fi)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunOverloadSession(p, OverloadSessionConfig{
		Rounds: 80, Load: 0.3, PayloadBits: 4, Seed: 5, Deadline: 6, Surge: plane,
		Retry: &RetryConfig{Budget: 0.05, BackoffBase: 1, BackoffCap: 4},
		CoDel: &CoDelConfig{Target: 2, Interval: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered == 0 {
		t.Fatal("overload session offered nothing")
	}
	if got := st.Delivered + st.DeadlineMissed + st.Shed + st.FinalBacklog; got != st.Offered {
		t.Fatalf("conservation violated: offered %d, accounted %d", st.Offered, got)
	}
	if st.Pool.AdmitFraction <= 0 || st.Pool.AdmitFraction > 1 {
		t.Fatalf("admit fraction %v outside (0,1]", st.Pool.AdmitFraction)
	}
}

// The durability facade end-to-end: run a crashing journaled session
// through the public wrappers and check exactly-once recovery against
// an uncrashed control, then roll a pool checkpoint through the
// journal's wire helpers.
func TestPublicAPIDurability(t *testing.T) {
	sw, err := NewColumnsortSwitchBeta(64, 32, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{Policy: Resend, Load: 0.5, Rounds: 40, PayloadBits: 4, Seed: 9, AckDelay: 2}

	control, _, err := RunDurableSession(sw, cfg, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	crash := GenerateCrashSchedule(9, cfg.Rounds, 3)
	stats, rec, err := RunDurableSession(sw, cfg, JournalConfig{Crash: crash})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Crashes != 3 || rec.Incarnations != 4 {
		t.Fatalf("%d crashes over %d incarnations, want 3 over 4", rec.Crashes, rec.Incarnations)
	}
	if stats.Offered != control.Offered || stats.Delivered != control.Delivered {
		t.Fatalf("recovered ledger (%d offered, %d delivered) != control (%d, %d)",
			stats.Offered, stats.Delivered, control.Offered, control.Delivered)
	}
	accounted := stats.Delivered + stats.Dropped + stats.CorruptedDropped +
		stats.DeadlineMissed + stats.Shed + stats.FinalBacklog
	if accounted != stats.Offered {
		t.Fatalf("conservation violated: offered %d, accounted %d", stats.Offered, accounted)
	}

	// One explicit crash fault through the plane constructor.
	plane := NewCrashPlane(1)
	plane.Add(CrashFault{Round: 5, Phase: CrashAtMidDispatch, TornFrac: 0.5})
	if _, rec2, err := RunDurableSession(sw, cfg, JournalConfig{Crash: plane}); err != nil {
		t.Fatal(err)
	} else if rec2.TornTails != 1 {
		t.Fatalf("torn mid-dispatch crash produced %d torn tails, want 1", rec2.TornTails)
	}

	// The journal store helpers round-trip a frame.
	store := NewJournalMemStore()
	w := NewJournalWriter(store)
	w.Append(JournalKindDelta, []byte("round"))
	res := ReplayJournal(store.Bytes())
	if len(res.Records) != 1 || res.TornBytes != 0 {
		t.Fatalf("replay found %d records, %d torn bytes", len(res.Records), res.TornBytes)
	}

	// Pool checkpoints through the facade: drain, rejoin, restore.
	var reps []FaultInjectable
	for i := 0; i < 2; i++ {
		fi, err := NewColumnsortSwitchBeta(64, 32, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, fi)
	}
	p, err := NewSwitchPool(PoolConfig{ProbeAfter: 1}, reps...)
	if err != nil {
		t.Fatal(err)
	}
	rcp, err := p.CheckpointReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Rejoin(0, rcp); err != nil {
		t.Fatal(err)
	}
	var cp *PoolCheckpoint = p.Snapshot()
	if err := p.Restore(cp); err != nil {
		t.Fatal(err)
	}
}

// The partition-tolerance facade end-to-end: a lease-fenced pool that
// survives a symmetric cut with every late delivery fenced, the plane
// and suspicion-clock constructors, and a chaos run with partitions.
func TestPublicAPIPartition(t *testing.T) {
	build := func() (FaultInjectable, error) {
		return NewColumnsortSwitchBeta(64, 32, 0.75)
	}
	replicas := make([]FaultInjectable, 3)
	for i := range replicas {
		fi, err := build()
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = fi
	}
	p, err := NewSwitchPool(PoolConfig{
		TripThreshold: 1, ProbeAfter: 1,
		Lease: LeaseConfig{Rounds: 4, Seed: 1},
	}, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	cut := PartitionFault{Mode: PartitionSymmetricCut, Replica: 0, From: 2, Until: 12}
	if err := p.InjectPartition(cut); err != nil {
		t.Fatal(err)
	}
	msgs := make([]Message, 16)
	for i := range msgs {
		msgs[i] = NewMessage(i, []byte{byte(i)})
	}
	trueServed := 0
	for round := 0; round < 20; round++ {
		rr, err := p.Run(msgs)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Violated {
			t.Fatalf("round %d violated the guarantee: %+v", round, rr)
		}
		trueServed += len(rr.Result.Delivered) + rr.ShadowDelivered
	}
	if err := p.ClearPartitions(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.LeaseHandoffs != 1 || s.Fenced == 0 || s.StaleDelivered != 0 {
		t.Fatalf("cut outliving the lease: %d handoffs, %d fenced, %d stale", s.LeaseHandoffs, s.Fenced, s.StaleDelivered)
	}
	if s.Delivered+s.Fenced+s.InFlightAcks != trueServed {
		t.Fatalf("Fenced conservation: delivered %d + fenced %d + in flight %d != true %d",
			s.Delivered, s.Fenced, s.InFlightAcks, trueServed)
	}

	// The plane and suspicion-clock constructors stand alone.
	plane := NewPartitionPlane(7)
	if err := plane.Add(PartitionFault{Mode: PartitionOneWay, Replica: 1, Dir: PartitionToReplica, From: 0, Until: 3}); err != nil {
		t.Fatal(err)
	}
	if plane.Visible(1, 1, PartitionToReplica) || !plane.Visible(1, 1, PartitionFromReplica) {
		t.Fatal("one-way cut severed the wrong direction")
	}
	clock := NewSuspicionClock(3)
	clock.Hear(2, 30)
	clock.Miss(2)
	if lkg, ok := clock.LastKnownGood(2); !ok || lkg != 30 || clock.Unheard(2) != 1 {
		t.Fatalf("suspicion clock: lkg %d ok=%v unheard %d", lkg, ok, clock.Unheard(2))
	}

	// Chaos with partition windows through the facade.
	probe, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChaosConfig{Replicas: 3, Rounds: 60, Load: 0.5, PayloadBits: 4, Seed: 7,
		Partitions: 2, Pool: PoolConfig{TripThreshold: 1, ProbeAfter: 1}}
	events, err := GenerateChaosSchedule(cfg.Seed, probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunChaos(build, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pr PartitionRecord = rep.Partition
	if pr.Partitions != 2 || pr.Heals != 2 || len(rep.Regressions) != 0 {
		t.Fatalf("chaos partitions: %+v, regressions %v", pr, rep.Regressions)
	}
	if rep.Stats.StaleDelivered != 0 ||
		rep.Stats.Delivered+rep.Stats.Fenced+rep.Stats.InFlightAcks != pr.TrueServed {
		t.Fatalf("chaos Fenced conservation: %+v vs true %d", rep.Stats, pr.TrueServed)
	}
}

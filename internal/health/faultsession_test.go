package health

import (
	"reflect"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/overload"
	"concentrators/internal/switchsim"
)

func TestGenerateFaultScheduleDeterministic(t *testing.T) {
	sw := newRevsort1024(t)
	a := GenerateFaultSchedule(42, sw, 20, 200, 5)
	b := GenerateFaultSchedule(42, sw, 20, 200, 5)
	if len(a) == 0 {
		t.Fatal("mtbf 20 over 200 rounds generated no faults")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d vs %d faults", len(a), len(b))
	}
	seen := make(map[[2]int]bool)
	last := -1
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fault %d: %v vs %v", i, a[i], b[i])
		}
		if a[i].Round < last || a[i].Round >= 200 {
			t.Fatalf("fault %d at round %d out of order or range", i, a[i].Round)
		}
		last = a[i].Round
		key := [2]int{a[i].Fault.Stage, a[i].Fault.Chip}
		if seen[key] {
			t.Fatalf("chip (%d,%d) failed twice", key[0], key[1])
		}
		seen[key] = true
		if err := core.ValidateFaultPlane(sw, planeOf(a[i].Fault)); err != nil {
			t.Fatalf("scheduled fault invalid: %v", err)
		}
	}
	if GenerateFaultSchedule(42, sw, 0, 200, 5) != nil {
		t.Fatal("mtbf 0 must disable the fault process")
	}
}

func planeOf(f core.ChipFault) *core.FaultPlane {
	p := core.NewFaultPlane()
	p.Add(f)
	return p
}

func TestFaultSessionConfigValidate(t *testing.T) {
	sw := newColumnsort1024(t)
	valid := FaultSessionConfig{
		SessionConfig: switchsim.SessionConfig{
			Policy: switchsim.Drop, Load: 0.5, Rounds: 10, PayloadBits: 1,
		},
		Schedule:  []ScheduledFault{{Round: 2, Fault: core.ChipFault{Stage: 0, Chip: 0, Mode: core.ChipDead}}},
		ScanEvery: 5,
	}
	if err := valid.Validate(sw); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*FaultSessionConfig)
	}{
		{"negative rounds", func(c *FaultSessionConfig) { c.Rounds = -1 }},
		{"load out of range", func(c *FaultSessionConfig) { c.Load = 2 }},
		{"zero payload bits", func(c *FaultSessionConfig) { c.PayloadBits = 0 }},
		{"negative scan period", func(c *FaultSessionConfig) { c.ScanEvery = -1 }},
		{"fault before session", func(c *FaultSessionConfig) { c.Schedule[0].Round = -1 }},
		{"fault after session", func(c *FaultSessionConfig) { c.Schedule[0].Round = c.Rounds }},
		{"fault stage out of range", func(c *FaultSessionConfig) { c.Schedule[0].Fault.Stage = 99 }},
		{"fault chip out of range", func(c *FaultSessionConfig) { c.Schedule[0].Fault.Chip = 9999 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			cfg.Schedule = []ScheduledFault{valid.Schedule[0]}
			tc.mutate(&cfg)
			if err := cfg.Validate(sw); err == nil {
				t.Errorf("Validate accepted %+v", cfg)
			}
			if _, err := RunFaultAwareSession(sw, cfg); err == nil {
				t.Errorf("RunFaultAwareSession accepted %+v", cfg)
			}
		})
	}
}

// TestFaultSessionConfigRejectsUnholdableFaults: a scheduled fault is
// checked by the rules of core.ValidateFaultPlane — mode and ports as
// well as stage and chip — before the session adds it to the live
// plane, whose kernel fixups index ports directly.
func TestFaultSessionConfigRejectsUnholdableFaults(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fault core.ChipFault
		want  string
	}{
		{core.ChipFault{Stage: 0, Chip: 0, Mode: core.ChipStuckOutput, A: 99},
			`health: schedule[0]: core: fault stage 0 chip 0: stuck-output port 99: stage "stage1 column chips" chips have 8 ports`},
		{core.ChipFault{Stage: 0, Chip: 0, Mode: core.ChipSwappedPair, A: 0, B: 40},
			"health: schedule[0]: core: fault stage 0 chip 0: swapped-pair ports 0,40: ports must be distinct and within 8"},
		{core.ChipFault{Stage: 0, Chip: 0, Mode: core.ChipSwappedPair, A: 1, B: 1},
			"health: schedule[0]: core: fault stage 0 chip 0: swapped-pair ports 1,1: ports must be distinct and within 8"},
		{core.ChipFault{Stage: 0, Chip: 0, Mode: core.ChipFaultMode(9)},
			"health: schedule[0]: core: fault stage 0 chip 0: ChipFaultMode(9): unknown mode"},
		{core.ChipFault{Stage: 4, Chip: 0, Mode: core.ChipDead},
			"health: schedule[0]: core: fault stage 4 chip 0: dead: switch has 4 stages"},
		{core.ChipFault{Stage: 1, Chip: 8, Mode: core.ChipPassThrough},
			`health: schedule[0]: core: fault stage 1 chip 8: pass-through: stage "stage2 row chips" has 8 chips`},
	} {
		cfg := FaultSessionConfig{
			SessionConfig: switchsim.SessionConfig{
				Policy: switchsim.Resend, Load: 0.5, Rounds: 10, PayloadBits: 1, AckDelay: 1,
			},
			Schedule:  []ScheduledFault{{Round: 2, Fault: tc.fault}},
			ScanEvery: 5,
		}
		if err := cfg.Validate(sw); err == nil || err.Error() != tc.want {
			t.Errorf("Validate(%v): got %v, want %q", tc.fault, err, tc.want)
		}
		if _, err := RunFaultAwareSession(sw, cfg); err == nil || err.Error() != tc.want {
			t.Errorf("RunFaultAwareSession(%v): got %v, want %q", tc.fault, err, tc.want)
		}
	}
}

// TestFaultSessionConfigRejectsIgnoredFields: RunFaultAwareSession
// steps the session round machine, not the ARQ engine, so setting the
// integrity layer is an error rather than a session that silently runs
// without it.
func TestFaultSessionConfigRejectsIgnoredFields(t *testing.T) {
	sw := newColumnsort1024(t)
	cfg := FaultSessionConfig{
		SessionConfig: switchsim.SessionConfig{
			Policy: switchsim.Resend, Load: 0.5, Rounds: 10, PayloadBits: 1, AckDelay: 1,
			Integrity: &switchsim.IntegrityConfig{},
		},
		ScanEvery: 5,
	}
	const want = "health: fault sessions do not run SessionConfig.Integrity; leave it unset"
	if err := cfg.Validate(sw); err == nil || err.Error() != want {
		t.Errorf("Validate: got %v, want %q", err, want)
	}
	if _, err := RunFaultAwareSession(sw, cfg); err == nil || err.Error() != want {
		t.Errorf("RunFaultAwareSession: got %v, want %q", err, want)
	}
}

// TestFaultSessionLayers: a fault session steps the whole round
// machine, so the deadline, surge, CoDel and retry-budget layers each
// run under every policy that supports them while scheduled chip
// faults strike and are scanned out. Every run balances the
// conservation law with its deadline, shed and backlog terms, books
// the layer's own term, loses nothing once the faults are covered, and
// replays to identical stats.
func TestFaultSessionLayers(t *testing.T) {
	newSwitch := func() core.FaultInjectable {
		sw, err := core.NewRevsortSwitch(64, 48)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	schedule := GenerateFaultSchedule(7, newSwitch(), 12, 60, 5)
	if len(schedule) == 0 {
		t.Fatal("the fault schedule is empty")
	}
	every := []switchsim.Policy{switchsim.Drop, switchsim.Resend, switchsim.Buffer, switchsim.Misroute}
	for _, layer := range []struct {
		name     string
		policies []switchsim.Policy
		set      func(*FaultSessionConfig)
	}{
		{"deadline", every, func(c *FaultSessionConfig) { c.Deadline = 1 }},
		{"surge", every, func(c *FaultSessionConfig) {
			c.Surge = overload.NewPlane(7)
			if err := c.Surge.Add(overload.Fault{Mode: overload.Sustained, Factor: 2, From: 10, Until: 40}); err != nil {
				t.Fatal(err)
			}
		}},
		{"codel", []switchsim.Policy{switchsim.Resend, switchsim.Buffer}, func(c *FaultSessionConfig) {
			c.CoDel = &overload.CoDelConfig{Target: 2, Interval: 8}
		}},
		{"retry-budget", []switchsim.Policy{switchsim.Resend}, func(c *FaultSessionConfig) {
			c.RetryBudget = &overload.RetryConfig{Budget: 0.1}
		}},
	} {
		for _, pol := range layer.policies {
			t.Run(layer.name+"/"+pol.String(), func(t *testing.T) {
				run := func() *FaultSessionStats {
					cfg := FaultSessionConfig{
						SessionConfig: switchsim.SessionConfig{
							Policy: pol, Load: 0.8, Rounds: 60, PayloadBits: 2, Seed: 7,
						},
						Schedule:  schedule,
						ScanEvery: 7,
					}
					if pol == switchsim.Resend {
						cfg.AckDelay = 1
					}
					layer.set(&cfg)
					st, err := RunFaultAwareSession(newSwitch(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					return st
				}
				st := run()
				if got := st.Delivered + st.Dropped + st.DeadlineMissed + st.Shed + st.FinalBacklog; got != st.Offered {
					t.Fatalf("delivered %d + dropped %d + missed %d + shed %d + backlog %d = %d, offered %d",
						st.Delivered, st.Dropped, st.DeadlineMissed, st.Shed, st.FinalBacklog, got, st.Offered)
				}
				if st.LostAfterDetection != 0 {
					t.Errorf("lost %d after detection", st.LostAfterDetection)
				}
				switch {
				case layer.name == "deadline" && pol != switchsim.Drop && st.DeadlineMissed == 0:
					t.Error("a deadline of 1 round booked no misses")
				case layer.name == "codel" && st.Shed == 0:
					t.Error("CoDel shed nothing")
				}
				if again := run(); !reflect.DeepEqual(st, again) {
					t.Fatalf("replay diverged:\n%+v\n%+v", st, again)
				}
			})
		}
	}
}

// TestFaultAwareSessionDetectsAndRecovers runs the full loop: traffic,
// a mid-session chip death, online violation-triggered scan,
// localization, degradation, and recovery with the Resend policy.
func TestFaultAwareSessionDetectsAndRecovers(t *testing.T) {
	sw := newRevsort1024(t)
	fault := core.ChipFault{Stage: core.RevsortStage3Columns, Chip: 2, Mode: core.ChipDead}
	cfg := FaultSessionConfig{
		SessionConfig: switchsim.SessionConfig{
			Policy:      switchsim.Resend,
			Load:        0.08,
			Rounds:      60,
			PayloadBits: 1,
			Seed:        7,
			AckDelay:    1,
		},
		Schedule:  []ScheduledFault{{Round: 10, Fault: fault}},
		ScanEvery: 50,
	}
	stats, err := RunFaultAwareSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultsInjected != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", stats.FaultsInjected)
	}
	if stats.FaultsDetected != 1 || len(stats.Detections) != 1 {
		t.Fatalf("FaultsDetected = %d (%v), want 1", stats.FaultsDetected, stats.Detections)
	}
	det := stats.Detections[0]
	if det.Fault.Stage != fault.Stage || det.Fault.Chip != fault.Chip {
		t.Fatalf("detected %v, want stage %d chip %d", det.Fault, fault.Stage, fault.Chip)
	}
	if det.Round < 10 || det.LatencyRounds < 0 || det.LatencyRounds > 10 {
		t.Fatalf("detection at round %d with latency %d: online detector too slow", det.Round, det.LatencyRounds)
	}
	if stats.GuaranteeViolations == 0 {
		t.Fatal("a dead final-stage chip under traffic must violate the contract at least once")
	}
	if stats.LostBeforeDetection == 0 {
		t.Fatal("the dead chip destroyed messages before detection; stats must show it")
	}
	if stats.LostAfterDetection != 0 {
		t.Fatalf("LostAfterDetection = %d, want 0: the degradation must stop the bleeding", stats.LostAfterDetection)
	}
	if stats.DegradedOutputs != sw.Outputs() {
		t.Fatalf("bypass degradation keeps all outputs; DegradedOutputs = %d", stats.DegradedOutputs)
	}
	wantThr := sw.Outputs() - (sw.EpsilonBound() + 32) // one bypassed 32-port chip
	if stats.DegradedThreshold != wantThr {
		t.Fatalf("DegradedThreshold = %d, want %d", stats.DegradedThreshold, wantThr)
	}
	if stats.PostDegradationAlpha <= 0 || stats.PostDegradationAlpha >= 1 {
		t.Fatalf("PostDegradationAlpha = %v out of (0,1)", stats.PostDegradationAlpha)
	}
	if stats.Scans < 2 || stats.ScanRoutes == 0 || stats.ScanOverhead <= 0 || stats.ScanOverhead >= 1 {
		t.Fatalf("scan accounting off: %d scans, %d routes, overhead %v",
			stats.Scans, stats.ScanRoutes, stats.ScanOverhead)
	}
	if stats.Retries == 0 {
		t.Fatal("Resend must have retried the messages the fault destroyed")
	}
	if stats.Delivered == 0 || stats.MaxOffered == 0 {
		t.Fatal("session carried no traffic")
	}
	sum := 0
	for _, c := range stats.DeliveredPerRound {
		sum += c
	}
	if sum != stats.Delivered {
		t.Fatalf("DeliveredPerRound sums to %d, Delivered = %d", sum, stats.Delivered)
	}
}

// TestFaultAwareSessionPeriodicScan verifies the ScanEvery cadence
// bounds detection latency for faults too subtle to trip the online
// contract check.
func TestFaultAwareSessionPeriodicScan(t *testing.T) {
	sw := newColumnsort1024(t)
	fault := core.ChipFault{Stage: core.ColumnsortStage1, Chip: 3, Mode: core.ChipSwappedPair, A: 0, B: 1}
	cfg := FaultSessionConfig{
		SessionConfig: switchsim.SessionConfig{
			Policy:      switchsim.Drop,
			Load:        0.05,
			Rounds:      25,
			PayloadBits: 1,
			Seed:        3,
		},
		Schedule:  []ScheduledFault{{Round: 5, Fault: fault}},
		ScanEvery: 10,
	}
	stats, err := RunFaultAwareSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultsDetected != 1 {
		t.Fatalf("FaultsDetected = %d (%v), want 1", stats.FaultsDetected, stats.Detections)
	}
	det := stats.Detections[0]
	if det.Round != 10 || det.LatencyRounds != 5 {
		t.Fatalf("periodic scan detected at round %d latency %d, want round 10 latency 5", det.Round, det.LatencyRounds)
	}
	if stats.Scans != 3 { // rounds 0, 10, 20
		t.Fatalf("Scans = %d, want 3", stats.Scans)
	}
}

// TestFaultAwareSessionBackoff drives persistent congestion through a
// healthy switch under Resend with bounded exponential backoff.
func TestFaultAwareSessionBackoff(t *testing.T) {
	sw, err := core.NewColumnsortSwitch(8, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FaultSessionConfig{
		SessionConfig: switchsim.SessionConfig{
			Policy:      switchsim.Resend,
			Load:        1.0,
			Rounds:      20,
			PayloadBits: 1,
			Seed:        5,
			AckDelay:    1,
		},
		ScanEvery: 5,
	}
	stats, err := RunFaultAwareSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultsDetected != 0 || stats.GuaranteeViolations != 0 {
		t.Fatalf("healthy switch reported faults: %d detected, %d violations",
			stats.FaultsDetected, stats.GuaranteeViolations)
	}
	if stats.Scans != 4 { // rounds 0, 5, 10, 15
		t.Fatalf("Scans = %d, want 4", stats.Scans)
	}
	if stats.Retries == 0 || stats.MaxBacklog == 0 {
		t.Fatalf("full load must build a retry backlog: retries %d, backlog %d",
			stats.Retries, stats.MaxBacklog)
	}
	if stats.Dropped != 0 {
		t.Fatalf("Resend never drops, Dropped = %d", stats.Dropped)
	}
	if stats.LostBeforeDetection != 0 || stats.LostAfterDetection != 0 {
		t.Fatalf("congestion is not fault loss: before %d after %d",
			stats.LostBeforeDetection, stats.LostAfterDetection)
	}
}

// TestFaultSessionLedger: a fault session books the full session
// ledger. With faults, congestion and a backlog left at the end, the
// conservation law Offered = Delivered + Dropped + CorruptedDropped +
// DeadlineMissed + Shed + FinalBacklog holds, LatencyHistogram is the
// exact sum of its first-try and retried halves, and Resend books the
// deliveries that needed retries.
func TestFaultSessionLedger(t *testing.T) {
	for _, pol := range []switchsim.Policy{switchsim.Drop, switchsim.Resend, switchsim.Buffer, switchsim.Misroute} {
		sw, err := core.NewColumnsortSwitch(16, 4, 48)
		if err != nil {
			t.Fatal(err)
		}
		cfg := FaultSessionConfig{
			SessionConfig: switchsim.SessionConfig{
				Policy: pol, Load: 0.9, Rounds: 40, PayloadBits: 4, Seed: 11,
			},
			Schedule:  GenerateFaultSchedule(11, sw, 12, 40, 5),
			ScanEvery: 7,
		}
		if pol == switchsim.Resend {
			cfg.AckDelay = 2
		}
		st, err := RunFaultAwareSession(sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.FaultsInjected == 0 {
			t.Fatalf("%s: schedule injected no faults", pol)
		}
		if got := st.Delivered + st.Dropped + st.CorruptedDropped + st.DeadlineMissed + st.Shed + st.FinalBacklog; got != st.Offered {
			t.Errorf("%s: delivered %d + dropped %d + corrupted %d + missed %d + shed %d + backlog %d = %d, offered %d",
				pol, st.Delivered, st.Dropped, st.CorruptedDropped, st.DeadlineMissed, st.Shed, st.FinalBacklog, got, st.Offered)
		}
		if pol != switchsim.Drop && st.FinalBacklog == 0 {
			t.Errorf("%s: load 0.9 left no final backlog; the law's closing term is untested", pol)
		}
		for lat, c := range st.LatencyHistogram {
			if split := st.FirstTryLatencyHistogram[lat] + st.RetriedLatencyHistogram[lat]; split != c {
				t.Errorf("%s: latency %d: %d deliveries, first-try + retried = %d", pol, lat, c, split)
			}
		}
		if len(st.FirstTryLatencyHistogram) > len(st.LatencyHistogram) || len(st.RetriedLatencyHistogram) > len(st.LatencyHistogram) {
			t.Errorf("%s: split histograms hold latencies the combined one lacks", pol)
		}
		if pol == switchsim.Resend && (st.Retries == 0 || st.RetriedDelivered == 0) {
			t.Errorf("resend: %d retries, %d retried deliveries; want both > 0", st.Retries, st.RetriedDelivered)
		}
	}
}

// TestFaultSessionSwitchReusable: a fault session injects its schedule
// into a copy of the switch's fault plane and reinstalls the caller's
// plane when it returns, so a second session on the same switch starts
// from the same fabric and replays the first exactly. That holds with
// no plane installed and with a caller's plane holding a fault of its
// own.
func TestFaultSessionSwitchReusable(t *testing.T) {
	for _, own := range []bool{false, true} {
		sw, err := core.NewRevsortSwitch(64, 48)
		if err != nil {
			t.Fatal(err)
		}
		var plane *core.FaultPlane
		if own {
			plane = planeOf(core.ChipFault{Stage: 0, Chip: 1, Mode: core.ChipDead})
			if err := sw.SetFaultPlane(plane); err != nil {
				t.Fatal(err)
			}
		}
		cfg := FaultSessionConfig{
			SessionConfig: switchsim.SessionConfig{
				Policy: switchsim.Resend, Load: 0.8, Rounds: 40, PayloadBits: 4, Seed: 1, AckDelay: 1,
			},
			Schedule:  GenerateFaultSchedule(1, sw, 12, 40, 5),
			ScanEvery: 7,
		}
		if len(cfg.Schedule) == 0 {
			t.Fatal("the fault schedule is empty")
		}
		want := plane.Faults()
		first, err := RunFaultAwareSession(sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sw.ActiveFaultPlane(); got != plane || !reflect.DeepEqual(got.Faults(), want) {
			t.Errorf("own plane %v: the switch's plane holds %v after the session, want the caller's %v", own, got.Faults(), want)
		}
		second, err := RunFaultAwareSession(sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("own plane %v: a second session on the same switch delivered %d, the first %d",
				own, second.Delivered, first.Delivered)
		}
	}
}

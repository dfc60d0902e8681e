package health

import (
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/link"
	"concentrators/internal/switchsim"
)

func TestOutputWireFaultMapping(t *testing.T) {
	for _, tc := range acceptanceSwitches {
		t.Run(tc.name, func(t *testing.T) {
			sw := tc.build(t)
			stages := sw.StageChips()
			final := len(stages) - 1
			for _, wire := range []int{0, 1, sw.Outputs() - 1} {
				lf, err := OutputWireFault(sw, wire)
				if err != nil {
					t.Fatal(err)
				}
				if lf.Stage != final || lf.Mode != core.ChipStuckOutput || !lf.ModeKnown || len(lf.Ports) != 1 {
					t.Fatalf("wire %d: fault %+v not a single final-stage stuck output", wire, lf)
				}
				// The fault must quarantine exactly the wire it names.
				deg, err := NewDegradedSwitch(sw, []LocalizedFault{lf})
				if err != nil {
					t.Fatal(err)
				}
				q := deg.quarantined
				if len(q) != 1 || q[0] != wire {
					t.Fatalf("wire %d quarantined %v", wire, q)
				}
				if deg.Outputs() != sw.Outputs()-1 {
					t.Fatalf("wire %d: outputs %d, want %d", wire, deg.Outputs(), sw.Outputs()-1)
				}
			}
			if _, err := OutputWireFault(sw, -1); err == nil {
				t.Error("negative wire accepted")
			}
			if _, err := OutputWireFault(sw, sw.Outputs()); err == nil {
				t.Error("out-of-range wire accepted")
			}
		})
	}
}

// OutputWire inverts the degraded renumbering: degraded output o lives
// on a physical inner wire, skipping quarantined ones, in order; chip
// bypasses renumber nothing.
func TestDegradedOutputWire(t *testing.T) {
	wireFaults := func(t *testing.T, sw core.FaultInjectable, wires ...int) []LocalizedFault {
		var faults []LocalizedFault
		for _, w := range wires {
			lf, err := OutputWireFault(sw, w)
			if err != nil {
				t.Fatal(err)
			}
			faults = append(faults, lf)
		}
		return faults
	}
	for _, tc := range []struct {
		name   string
		build  func(t *testing.T) core.FaultInjectable
		wires  []int // quarantined output wires
		bypass []LocalizedFault
	}{
		{"revsort one wire", newRevsort1024, []int{5}, nil},
		{"revsort no faults", newRevsort1024, nil, nil},
		{"revsort ends and bypasses", newRevsort1024, []int{0, 5, 6, 511},
			[]LocalizedFault{{Stage: 0, Chip: 3, Mode: core.ChipDead, ModeKnown: true}, {Stage: 3, Chip: 7}}},
		{"columnsort wires and final bypass", newColumnsort1024, []int{1, 100, 300},
			[]LocalizedFault{{Stage: 1, Chip: 2, Mode: core.ChipDead, ModeKnown: true}, {Stage: 0, Chip: 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := tc.build(t)
			deg, err := NewDegradedSwitch(sw, append(wireFaults(t, sw, tc.wires...), tc.bypass...))
			if err != nil {
				t.Fatal(err)
			}
			if deg.Outputs() != sw.Outputs()-len(tc.wires) || len(deg.bypassed) != len(tc.bypass) {
				t.Fatalf("outputs %d, bypassed %d; want %d and %d",
					deg.Outputs(), len(deg.bypassed), sw.Outputs()-len(tc.wires), len(tc.bypass))
			}
			prev := -1
			for o := 0; o < deg.Outputs(); o++ {
				phys, err := deg.OutputWire(o)
				if err != nil {
					t.Fatal(err)
				}
				if phys <= prev || deg.remap[phys] != o {
					t.Fatalf("degraded output %d on wire %d (previous %d), which remaps to %d", o, phys, prev, deg.remap[phys])
				}
				prev = phys
			}
			for _, o := range []int{-1, deg.Outputs()} {
				if _, err := deg.OutputWire(o); err == nil {
					t.Errorf("out-of-range degraded output %d accepted", o)
				}
			}
		})
	}
	// The one-wire contract, spelled out: outputs past wire 5 shift up.
	sw := newRevsort1024(t)
	deg, err := NewDegradedSwitch(sw, wireFaults(t, sw, 5))
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < deg.Outputs(); o++ {
		want := o
		if o >= 5 {
			want = o + 1 // wire 5 is quarantined
		}
		if phys, err := deg.OutputWire(o); err != nil || phys != want {
			t.Fatalf("degraded output %d on wire %d (%v), want %d", o, phys, err, want)
		}
	}
}

// The ISSUE's bounded-quarantine acceptance: a BER ≥ 0.5 output link
// must be escalated — BIST scan, wire quarantine, recomputed
// (n, m−1, α′) contract — within bounded rounds, with the session
// continuing to deliver clean payloads afterwards.
func TestLinkEscalationQuarantinesNoisyWire(t *testing.T) {
	// 1024/512 so the degraded contract keeps a positive guarantee
	// threshold (the 64/32 revsort has ⌊αm⌋ = 0 even healthy, and the
	// escalator refuses a quarantine that would guarantee nothing).
	sw, err := core.NewRevsortSwitch(1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	outStage := len(sw.StageChips()) // board-level output wires
	plane := link.NewCorruptionPlane(31)
	if err := plane.Add(link.WireFault{Stage: outStage, Wire: 2, Mode: link.WireBitFlip, BER: 0.5}); err != nil {
		t.Fatal(err)
	}
	rounds := 100
	stats, err := RunIntegritySession(sw, switchsim.SessionConfig{
		Policy: switchsim.Resend, Load: 0.9, Rounds: rounds, PayloadBits: 16,
		Seed: 3, AckDelay: 1,
		Integrity: &switchsim.IntegrityConfig{
			CRC: link.CRC16, Window: 4, Corruption: plane,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ist := stats.Integrity
	if ist.LinksQuarantined != 1 || ist.ScanRoutes == 0 {
		t.Fatalf("noisy wire not escalated: %+v", ist)
	}
	bad := link.LinkAddr{Stage: outStage, Wire: 2}
	h := ist.Links[bad]
	if !h.Escalated {
		t.Fatalf("link %v not marked escalated: %+v", bad, h)
	}
	// Bounded detection: conviction needs MinFrames (8) corrupt
	// receptions on the wire; with n=2m the wire carries a path most
	// rounds, so a small multiple of MinFrames bounds the receptions
	// spent before quarantine.
	if h.Frames > 4*8 {
		t.Errorf("quarantine after %d receptions, want ≤ %d", h.Frames, 4*8)
	}
	// Recomputed contract: one wire gone, guarantee still positive.
	if ist.LiveOutputs != 511 || ist.LiveThreshold <= 0 {
		t.Errorf("serving contract (m′=%d, t′=%d), want m′=511 with positive threshold",
			ist.LiveOutputs, ist.LiveThreshold)
	}
	// The session keeps flowing after the quarantine, and the CRC kept
	// every corrupted payload out of Delivered.
	if ist.CorruptedDelivered != 0 {
		t.Errorf("%d corrupted payloads delivered", ist.CorruptedDelivered)
	}
	tail := 0
	for r := rounds / 2; r < rounds; r++ {
		tail += stats.DeliveredPerRound[r]
	}
	if tail == 0 {
		t.Error("no deliveries in the second half of the session")
	}
	if got := stats.Delivered + stats.Dropped + stats.CorruptedDropped + ist.FinalBacklog; got != stats.Offered {
		t.Errorf("conservation broken after quarantine: %d != Offered %d", got, stats.Offered)
	}
}

// Escalation composes with chip faults: the confirming scan sees a
// genuinely failing chip and the rebuilt contract covers both it and
// the distrusted wire.
func TestLinkEscalationComposesWithChipFault(t *testing.T) {
	sw, err := core.NewRevsortSwitch(1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	// A dead stage-1 chip, injected before the session starts.
	fp := core.NewFaultPlane()
	fp.Add(core.ChipFault{Stage: core.RevsortStage1Columns, Chip: 1, Mode: core.ChipDead})
	sw.SetFaultPlane(fp)
	outStage := len(sw.StageChips())
	plane := link.NewCorruptionPlane(17)
	if err := plane.Add(link.WireFault{Stage: outStage, Wire: 4, Mode: link.WireBitFlip, BER: 0.6}); err != nil {
		t.Fatal(err)
	}
	esc := NewLinkEscalator(sw)
	res, err := esc.Escalate(link.LinkAddr{Stage: outStage, Wire: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Serving == nil {
		t.Fatal("escalation produced no serving contract")
	}
	deg, ok := res.Serving.(*DegradedSwitch)
	if !ok {
		t.Fatalf("serving contract is %T", res.Serving)
	}
	q := deg.quarantined
	found := false
	for _, w := range q {
		if w == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("wire 4 not in quarantine set %v", q)
	}
	if len(deg.bypassed) == 0 {
		t.Error("dead chip not bypassed in the degraded contract")
	}
}

// Guard rails: RunIntegritySession owns the escalator hook.
func TestRunIntegritySessionValidation(t *testing.T) {
	sw := newRevsort1024(t)
	base := switchsim.SessionConfig{
		Policy: switchsim.Resend, Load: 0.2, Rounds: 5, PayloadBits: 4, AckDelay: 1,
	}
	if _, err := RunIntegritySession(sw, base); err == nil {
		t.Error("nil Integrity accepted")
	}
	cfg := base
	cfg.Integrity = &switchsim.IntegrityConfig{CRC: link.CRC8, Escalate: func(link.LinkAddr) (*switchsim.LinkEscalation, error) { return nil, nil }}
	if _, err := RunIntegritySession(sw, cfg); err == nil {
		t.Error("caller-provided Escalate hook accepted")
	}
}

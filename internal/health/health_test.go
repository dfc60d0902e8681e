package health

import (
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/seedrand"
	"concentrators/internal/switchsim"
)

func newRevsort1024(t *testing.T) core.FaultInjectable {
	t.Helper()
	sw, err := core.NewRevsortSwitch(1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func newColumnsort1024(t *testing.T) core.FaultInjectable {
	t.Helper()
	sw, err := core.NewColumnsortSwitchBeta(1024, 512, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

var acceptanceSwitches = []struct {
	name  string
	build func(t *testing.T) core.FaultInjectable
}{
	{"revsort", newRevsort1024},
	{"columnsort", newColumnsort1024},
}

func TestScanHealthySwitch(t *testing.T) {
	for _, tc := range acceptanceSwitches {
		sw := tc.build(t)
		rep, err := Scan(sw)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Healthy {
			t.Fatalf("%s: healthy switch scanned unhealthy: faults %v violations %v",
				tc.name, rep.Faults, rep.Violations)
		}
		if rep.Patterns == 0 || rep.Routes != rep.Patterns {
			t.Fatalf("%s: scan accounting off: %d patterns, %d routes", tc.name, rep.Patterns, rep.Routes)
		}
	}
}

// TestFaultLocalizationAndDegradedOperation is the PR's acceptance
// criterion: for every single-chip fault kind injected into every stage
// of a revsort (n=1024) and a columnsort (n=1024, β=3/4) switch, the
// health scan must localize the faulty stage and chip, and a seeded
// 200-round session through the resulting DegradedSwitch must pass
// CheckGuarantee against the recomputed degraded threshold with zero
// post-detection losses.
func TestFaultLocalizationAndDegradedOperation(t *testing.T) {
	modes := []core.ChipFaultMode{
		core.ChipDead, core.ChipStuckOutput, core.ChipSwappedPair, core.ChipPassThrough,
	}
	for _, tc := range acceptanceSwitches {
		stageCount := len(tc.build(t).StageChips())
		for si := 0; si < stageCount; si++ {
			for _, mode := range modes {
				sw := tc.build(t)
				// Chip 1 everywhere: a chip whose failure is observable in
				// every stage (shifter chip 0 rotates by rev(0)=0, so its
				// pass-through failure would be electrically a no-op).
				fault := core.ChipFault{Stage: si, Chip: 1, Mode: mode, A: 0, B: 1}
				plane := core.NewFaultPlane()
				plane.Add(fault)
				if err := sw.SetFaultPlane(plane); err != nil {
					t.Fatal(err)
				}

				rep, err := Scan(sw)
				if err != nil {
					t.Fatalf("%s stage %d %v: %v", tc.name, si, mode, err)
				}
				if rep.Healthy {
					t.Fatalf("%s stage %d %v: scan missed the fault", tc.name, si, mode)
				}
				if len(rep.Faults) != 1 {
					t.Fatalf("%s stage %d %v: localized %v, want exactly one fault", tc.name, si, mode, rep.Faults)
				}
				lf := rep.Faults[0]
				if lf.Stage != si || lf.Chip != 1 {
					t.Fatalf("%s stage %d %v: localized (stage %d, chip %d)", tc.name, si, mode, lf.Stage, lf.Chip)
				}
				// Dead and stuck chips have unambiguous signatures; the scan
				// must also name the mode (and the stuck port).
				switch mode {
				case core.ChipDead:
					if !lf.ModeKnown || lf.Mode != core.ChipDead {
						t.Fatalf("%s stage %d: dead chip classified as %v", tc.name, si, lf)
					}
				case core.ChipStuckOutput:
					if !lf.ModeKnown || lf.Mode != core.ChipStuckOutput ||
						len(lf.Ports) != 1 || lf.Ports[0] != fault.A {
						t.Fatalf("%s stage %d: stuck chip classified as %v", tc.name, si, lf)
					}
				}

				d, err := NewDegradedSwitch(sw, rep.Faults)
				if err != nil {
					t.Fatal(err)
				}
				if d.Outputs() <= 0 || core.Threshold(d) <= 0 {
					t.Fatalf("%s stage %d %v: degraded contract vacuous: m′=%d threshold=%d",
						tc.name, si, mode, d.Outputs(), core.Threshold(d))
				}
				if d.Outputs()+len(d.quarantined) != sw.Outputs() {
					t.Fatalf("%s stage %d %v: output accounting off", tc.name, si, mode)
				}

				stream := seedrand.NewStream(int64(si)*16 + int64(mode) + 1)
				for round := 0; round < 200; round++ {
					msgs := switchsim.RandomMessages(&stream, sw.Inputs(), 0.08, 0)
					if len(msgs) == 0 {
						continue
					}
					res, err := switchsim.Run(d, msgs)
					if err != nil {
						t.Fatal(err)
					}
					if err := switchsim.CheckGuarantee(d, msgs, res); err != nil {
						t.Fatalf("%s stage %d %v round %d: degraded guarantee violated: %v",
							tc.name, si, mode, round, err)
					}
					if len(msgs) <= core.Threshold(d) && len(res.DroppedInputs) != 0 {
						t.Fatalf("%s stage %d %v round %d: %d post-detection losses at k=%d ≤ threshold %d",
							tc.name, si, mode, round, len(res.DroppedInputs), len(msgs), core.Threshold(d))
					}
				}
			}
		}
	}
}

func TestDegradedContractArithmetic(t *testing.T) {
	sw := newRevsort1024(t)
	stages := sw.StageChips()
	final := len(stages) - 1

	// A final-stage stuck wire quarantines one output: m′ = m−1, ε
	// unchanged.
	stuck := []LocalizedFault{{
		Stage: final, Chip: 3, Mode: core.ChipStuckOutput, ModeKnown: true, Ports: []int{0},
	}}
	d, err := NewDegradedSwitch(sw, stuck)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outputs() != sw.Outputs()-1 {
		t.Fatalf("quarantine: m′ = %d, want %d", d.Outputs(), sw.Outputs()-1)
	}
	if d.EpsilonBound() != sw.EpsilonBound() {
		t.Fatalf("quarantine: ε′ = %d, want %d", d.EpsilonBound(), sw.EpsilonBound())
	}
	if got := d.quarantined; len(got) != 1 || got[0] != 3 {
		t.Fatalf("quarantined wires = %v, want [3]", got)
	}

	// A bypassed mid-stage chip keeps every output but pays its port
	// count in ε.
	bypass := []LocalizedFault{{Stage: 0, Chip: 5, Mode: core.ChipDead, ModeKnown: true}}
	d, err = NewDegradedSwitch(sw, bypass)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outputs() != sw.Outputs() {
		t.Fatalf("bypass: m′ = %d, want %d", d.Outputs(), sw.Outputs())
	}
	if d.EpsilonBound() != sw.EpsilonBound()+stages[0].Ports {
		t.Fatalf("bypass: ε′ = %d, want %d", d.EpsilonBound(), sw.EpsilonBound()+stages[0].Ports)
	}
	if len(d.bypassed) != 1 || d.epsPenalty != stages[0].Ports {
		t.Fatalf("bypass accounting: chips %d penalty %d", len(d.bypassed), d.epsPenalty)
	}

	// Out-of-range diagnoses are rejected.
	if _, err := NewDegradedSwitch(sw, []LocalizedFault{{Stage: 9, Chip: 0}}); err == nil {
		t.Fatal("NewDegradedSwitch accepted an out-of-range stage")
	}
	if _, err := NewDegradedSwitch(sw, []LocalizedFault{{Stage: 0, Chip: 99}}); err == nil {
		t.Fatal("NewDegradedSwitch accepted an out-of-range chip")
	}
}

func TestDegradedSwitchLeavesLaterFaultsActive(t *testing.T) {
	sw := newColumnsort1024(t)
	plane := core.NewFaultPlane()
	plane.Add(core.ChipFault{Stage: 0, Chip: 1, Mode: core.ChipDead})
	if err := sw.SetFaultPlane(plane); err != nil {
		t.Fatal(err)
	}
	rep, err := Scan(sw)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDegradedSwitch(sw, rep.Faults)
	if err != nil {
		t.Fatal(err)
	}
	// A second fault strikes after the degradation was derived: it must
	// keep hurting through the degraded switch until the next scan.
	plane.Add(core.ChipFault{Stage: 1, Chip: 2, Mode: core.ChipDead})
	stream := seedrand.NewStream(99)
	// k ≤ the degraded threshold, so the contract demands every message
	// be routed — losses to the new dead chip are a visible violation.
	msgs := switchsim.RandomMessages(&stream, sw.Inputs(), 0.15, 0)
	if len(msgs) > core.Threshold(d) {
		t.Fatalf("test load too high: k=%d > threshold %d", len(msgs), core.Threshold(d))
	}
	res, err := switchsim.Run(d, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := switchsim.CheckGuarantee(d, msgs, res); err == nil {
		t.Fatal("an undetected second dead chip should violate the degraded contract")
	}
	// The next scan sees both faults and the refreshed degradation covers
	// them again.
	rep2, err := Scan(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Faults) != 2 {
		t.Fatalf("second scan localized %v, want both faults", rep2.Faults)
	}
}

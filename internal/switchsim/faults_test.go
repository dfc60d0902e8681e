package switchsim_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
	"concentrators/internal/health"
	"concentrators/internal/nearsort"
	"concentrators/internal/switchsim"
)

// Mutation testing of the verification layer on the chip fault model
// that every scan, pool, session and chaos run uses (core.ChipFault):
// a fault that breaks the §1 concentrator contract must be caught by
// nearsort.CheckPartialConcentration, and a benign one must pass. The
// switch is Columnsort 16×4 with m = 48, so ε = (s−1)² = 9 and the
// contract routes every message up to 39 and at least 39 above that.

// finalChip0 addresses chip 0 of Columnsort's final stage, whose port p
// drives output wire 4p.
func finalChip0(mode core.ChipFaultMode, a, b int) core.ChipFault {
	return core.ChipFault{Stage: core.ColumnsortStage2, Chip: 0, Mode: mode, A: a, B: b}
}

// columnsort16x4 builds the switch with the given faults installed.
func columnsort16x4(t *testing.T, faults ...core.ChipFault) *core.ColumnsortSwitch {
	t.Helper()
	sw, err := core.NewColumnsortSwitch(16, 4, 48)
	if err != nil {
		t.Fatal(err)
	}
	plane := core.NewFaultPlane()
	for _, f := range faults {
		plane.Add(f)
	}
	if err := sw.SetFaultPlane(plane); err != nil {
		t.Fatal(err)
	}
	return sw
}

// flagged routes 200 seeded patterns at the given load and returns how
// many of them the oracle rejects.
func flagged(t *testing.T, sw core.Concentrator, load float64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(load * 100)))
	bad := 0
	for trial := 0; trial < 200; trial++ {
		v := bitvec.New(sw.Inputs())
		for i := 0; i < v.Len(); i++ {
			v.Set(i, rng.Float64() < load)
		}
		out, err := sw.Route(v)
		if err != nil {
			t.Fatal(err)
		}
		if nearsort.CheckPartialConcentration(v, out, sw.Outputs(), sw.EpsilonBound()) != nil {
			bad++
		}
	}
	return bad
}

func TestFaultNoneIsTransparent(t *testing.T) {
	sw := columnsort16x4(t)
	for _, load := range []float64{0.3, 0.6, 1} {
		if got := flagged(t, sw, load); got != 0 {
			t.Errorf("load %v: empty plane flagged in %d of 200 patterns", load, got)
		}
	}
}

func TestDropOutputFaultDetected(t *testing.T) {
	sw := columnsort16x4(t, finalChip0(core.ChipDead, 0, 0))
	for _, load := range []float64{0.3, 0.6, 1} {
		if got := flagged(t, sw, load); got != 200 {
			t.Errorf("load %v: dead final-stage chip flagged in %d of 200 patterns", load, got)
		}
	}
}

// Below full load the stuck port's phantom is attributed to an idle
// input; TestStuckOutputObservableAtFullLoad covers full load.
func TestStuckOutputFaultDetected(t *testing.T) {
	sw := columnsort16x4(t, finalChip0(core.ChipStuckOutput, 0, 0))
	for _, load := range []float64{0.3, 0.6} {
		if got := flagged(t, sw, load); got != 200 {
			t.Errorf("load %v: stuck final-stage output flagged in %d of 200 patterns", load, got)
		}
	}
}

// Crossing two output wires below m does not violate the §1 contract:
// the messages still occupy distinct outputs, and a concentrator does
// not promise which output a message exits on.
func TestSwapFaultIsBenign(t *testing.T) {
	sw := columnsort16x4(t, finalChip0(core.ChipSwappedPair, 1, 5))
	for _, load := range []float64{0.3, 0.6, 1} {
		if got := flagged(t, sw, load); got != 0 {
			t.Errorf("load %v: swapped pair flagged in %d of 200 patterns", load, got)
		}
	}
}

// The end-to-end guarantee checker catches a chip fault through the
// bit-serial simulation path: 39 messages, the threshold, must all
// arrive.
func TestCheckGuaranteeCatchesFaults(t *testing.T) {
	sw := columnsort16x4(t, finalChip0(core.ChipDead, 0, 0))
	var msgs []switchsim.Message
	for i := 0; i < core.Threshold(sw); i++ {
		msgs = append(msgs, switchsim.NewMessage(i, []byte{byte(i)}))
	}
	res, err := switchsim.Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := switchsim.CheckGuarantee(sw, msgs, res); err == nil {
		t.Error("CheckGuarantee missed a dead final-stage chip at the threshold load")
	}
}

// A stuck output port with an idle input present surfaces its phantom
// on that input, which the oracle rejects. At full load no input is
// idle: the phantom only destroys the message on its port, a loss ε
// allows, so the oracle passes and the fault is observable to the scan
// instead, which localizes it to its chip and port (as
// health.TestFaultLocalizationAndDegradedOperation checks on every
// stage).
func TestStuckOutputObservableAtFullLoad(t *testing.T) {
	healthy := columnsort16x4(t)
	sw := columnsort16x4(t, finalChip0(core.ChipStuckOutput, 0, 0))
	v := bitvec.New(64)
	for i := 0; i < 64; i++ {
		v.Set(i, true)
	}
	base, err := healthy.Route(v)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Route(v)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := routed(out), routed(base)-1; got != want {
		t.Fatalf("full load routed %d messages, want %d", got, want)
	}
	if err := nearsort.CheckPartialConcentration(v, out, sw.Outputs(), sw.EpsilonBound()); err != nil {
		t.Fatalf("oracle rejected a loss within ε: %v", err)
	}
	rep, err := health.Scan(sw)
	if err != nil {
		t.Fatal(err)
	}
	want := health.LocalizedFault{Stage: core.ColumnsortStage2, Chip: 0,
		Mode: core.ChipStuckOutput, ModeKnown: true, Ports: []int{0}}
	if len(rep.Faults) != 1 {
		t.Fatalf("scan localized %v, want %v", rep.Faults, want)
	}
	got := rep.Faults[0]
	got.Pattern = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan localized %v, want %v", rep.Faults[0], want)
	}

	v.Set(63, false)
	out, err = sw.Route(v)
	if err != nil {
		t.Fatal(err)
	}
	if out[63] != 0 {
		t.Fatalf("idle input 63 routed to %d, want the stuck wire 0", out[63])
	}
	err = nearsort.CheckPartialConcentration(v, out, sw.Outputs(), sw.EpsilonBound())
	if err == nil || !strings.Contains(err.Error(), "invalid input 63 was routed") {
		t.Fatalf("oracle reported %v, want the phantom on invalid input 63", err)
	}
}

func routed(out []int) int {
	n := 0
	for _, o := range out {
		if o >= 0 {
			n++
		}
	}
	return n
}

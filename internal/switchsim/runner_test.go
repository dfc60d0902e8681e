package switchsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
	"concentrators/internal/seedrand"
)

// referenceRun is the map-based setup-and-stream loop the Runner is
// checked against: every output wire gets its own stream array, which
// it returns as wires, and payload bits stream cycle by cycle along the
// established paths.
func referenceRun(sw core.Concentrator, msgs []Message) (res *Result, wires [][]byte, err error) {
	n, m := sw.Inputs(), sw.Outputs()
	valid := bitvec.New(n)
	byInput := make(map[int]*Message, len(msgs))
	maxLen := 0
	for i := range msgs {
		msg := &msgs[i]
		if msg.Input < 0 || msg.Input >= n {
			return nil, nil, fmt.Errorf("switchsim: message input %d out of range [0,%d)", msg.Input, n)
		}
		if byInput[msg.Input] != nil {
			return nil, nil, fmt.Errorf("switchsim: two messages on input %d", msg.Input)
		}
		byInput[msg.Input] = msg
		valid.Set(msg.Input, true)
		if len(msg.Payload) > maxLen {
			maxLen = len(msg.Payload)
		}
	}
	routing, err := sw.Route(valid)
	if err != nil {
		return nil, nil, err
	}
	res = &Result{
		Cycles:  1 + maxLen,
		Valid:   valid,
		Routing: routing,
	}
	wires = make([][]byte, m)
	for o := range wires {
		wires[o] = make([]byte, maxLen)
	}
	for c := 0; c < maxLen; c++ {
		for in, msg := range byInput {
			o := routing[in]
			if o < 0 || c >= len(msg.Payload) {
				continue
			}
			wires[o][c] = msg.Payload[c] & 1
		}
	}
	for i := range msgs {
		msg := &msgs[i]
		if o := routing[msg.Input]; o >= 0 {
			res.Delivered = append(res.Delivered, Delivery{
				Input:   msg.Input,
				Output:  o,
				Payload: wires[o][:len(msg.Payload)],
			})
		} else {
			res.DroppedInputs = append(res.DroppedInputs, msg.Input)
		}
	}
	return res, wires, nil
}

// waveform renders res's waveform over m output wires, every cycle.
func waveform(t *testing.T, res *Result, m int) string {
	t.Helper()
	var sb strings.Builder
	if err := res.WriteWaveform(&sb, m, 0); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// checkWires fails unless res's waveform row for every output wire
// shows the bits the reference left on that wire.
func checkWires(t *testing.T, label string, res *Result, wires [][]byte) {
	t.Helper()
	rows := strings.Split(waveform(t, res, len(wires)), "\n")[1:]
	for o, bits := range wires {
		want := make([]byte, len(bits))
		for c, b := range bits {
			want[c] = "_1"[b]
		}
		if prefix := fmt.Sprintf("out %3d  %s ", o, want); !strings.HasPrefix(rows[o], prefix) {
			t.Fatalf("%s: waveform row %q, want the wire's bits %q", label, rows[o], prefix)
		}
	}
}

// routeOnly hides a switch's RouteInto, as health.DegradedSwitch lacks
// one: the Runner then keeps the slice Route returns.
type routeOnly struct{ core.Concentrator }

// TestRunnerMatchesRun pins that the zero-alloc Runner, reused across
// rounds, and the package-level Run both produce results identical to
// the reference streaming loop, with and without RouteInto: on random
// batches, and on batches whose payload lengths straddle the 8-bit
// words the stream is copied in, with bytes whose high bits are set.
func TestRunnerMatchesRun(t *testing.T) {
	rev, err := core.NewRevsortSwitch(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []core.Concentrator{rev, routeOnly{rev}} {
		testRunnerMatchesRun(t, sw)
	}
}

func testRunnerMatchesRun(t *testing.T, sw core.Concentrator) {
	stream := seedrand.NewStream(31)
	rng := rand.New(&stream)
	r := NewRunner(sw)
	for trial := 0; trial < 25; trial++ {
		msgs := RandomMessages(&stream, 64, rng.Float64(), 16)
		if trial%5 == 0 {
			// Payload-free rounds, as Pool.Route sends.
			for i := range msgs {
				msgs[i].Payload = nil
			}
		}
		checkRunnerRound(t, fmt.Sprintf("trial %d", trial), sw, r, msgs)
	}
	// Each round reuses the last one's stream buffer, so a short stream
	// must idle at 0 where a longer one stood before.
	for trial := 0; trial < 8; trial++ {
		checkRunnerRound(t, fmt.Sprintf("mixed-length trial %d", trial), sw, r, mixedLengthBatch(rng))
	}
}

// mixedLengthBatch sends payloads of 0, 1, 7, 8, 9, 15, 16, 17, 31 and
// 33 bits, in shuffled order, from ten random inputs in ascending
// order. Every payload byte is one of 0x00, 0x01, 0x02, 0xFE or 0xFF,
// so bits above bit 0 are set in most of them.
func mixedLengthBatch(rng *rand.Rand) []Message {
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 33}
	rng.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	inputs := rng.Perm(64)[:len(lengths)]
	slices.Sort(inputs)
	byteValues := []byte{0x00, 0x01, 0x02, 0xFE, 0xFF}
	msgs := make([]Message, len(lengths))
	for k, in := range inputs {
		payload := make([]byte, lengths[k])
		for c := range payload {
			payload[c] = byteValues[rng.Intn(len(byteValues))]
		}
		msgs[k] = Message{Input: in, Payload: payload}
	}
	return msgs
}

// checkRunnerRound runs msgs through the reference, the package-level
// Run and the reused Runner r, and fails unless all three agree and
// the guarantee holds.
func checkRunnerRound(t *testing.T, label string, sw core.Concentrator, r *Runner, msgs []Message) {
	t.Helper()
	want, wires, err := referenceRun(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(msgs)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh Run matches the reference exactly, nil slices included.
	if !reflect.DeepEqual(fresh, want) {
		t.Fatalf("%s: Run diverges from the reference:\n%+v\n%+v", label, fresh, want)
	}
	// A reused Runner keeps its (possibly empty) slices between rounds.
	if got.Cycles != want.Cycles {
		t.Fatalf("%s: cycles %d != %d", label, got.Cycles, want.Cycles)
	}
	if !reflect.DeepEqual(normDeliveries(got.Delivered), normDeliveries(want.Delivered)) {
		t.Fatalf("%s: deliveries diverge", label)
	}
	if !reflect.DeepEqual(normInts(got.DroppedInputs), normInts(want.DroppedInputs)) {
		t.Fatalf("%s: drops diverge: %v vs %v", label, got.DroppedInputs, want.DroppedInputs)
	}
	if !reflect.DeepEqual(got.Routing, want.Routing) {
		t.Fatalf("%s: routing diverges", label)
	}
	if !got.Valid.Equal(want.Valid) {
		t.Fatalf("%s: valid diverges", label)
	}
	// The reused Runner never clears its arena, yet every wire shows
	// only this round's bits.
	checkWires(t, label, got, wires)
	if err := CheckGuarantee(sw, msgs, got); err != nil {
		t.Fatal(err)
	}
}

func normDeliveries(ds []Delivery) []Delivery {
	out := make([]Delivery, len(ds))
	for i, d := range ds {
		out[i] = Delivery{Input: d.Input, Output: d.Output, Payload: append([]byte(nil), d.Payload...)}
	}
	return out
}

func normInts(xs []int) []int {
	return append([]int{}, xs...)
}

// TestDeliveredPayloadsOwnTheirCapacity: the Runner's delivered
// payloads share one arena, so appending to one must reallocate rather
// than write into a neighbouring output's slot.
func TestDeliveredPayloadsOwnTheirCapacity(t *testing.T) {
	sw, err := core.NewPerfectSwitch(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]Message, 8)
	for i := range msgs {
		msgs[i] = Message{Input: i, Payload: []byte{0, 1, 0, 1}}
	}
	// A short payload leaves idle cycles at the end of its own slot.
	msgs[0].Payload = []byte{0, 1}
	res, err := NewRunner(sw).Run(msgs)
	if err != nil {
		t.Fatal(err)
	}
	before := waveform(t, res, 8)
	d0 := res.Delivered[0]
	// Long enough to run past output 0's slot into output 1's.
	_ = append(d0.Payload, 1, 1, 1, 1)
	if after := waveform(t, res, 8); after != before {
		t.Fatalf("appending to output %d's payload rewrote the wires:\n%s\nwas\n%s", d0.Output, after, before)
	}
	for _, d := range res.Delivered[1:] {
		if string(d.Payload) != string([]byte{0, 1, 0, 1}) {
			t.Fatalf("input %d's delivered payload rewritten to %v", d.Input, d.Payload)
		}
	}
}

func TestRunnerRejectsBadInput(t *testing.T) {
	sw, err := core.NewPerfectSwitch(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sw)
	if _, err := r.Run([]Message{{Input: 9}}); err == nil {
		t.Fatal("out-of-range input not rejected")
	}
	if _, err := r.Run([]Message{{Input: 3}, {Input: 3}}); err == nil {
		t.Fatal("duplicate input not rejected")
	}
	// The runner must still work after an error round.
	if _, err := r.Run([]Message{{Input: 3, Payload: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerZeroAlloc is the allocation-regression satellite for the
// session hot path: a steady-state round through a RouterInto switch
// performs zero heap allocations.
func TestRunnerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; steady-state allocs are not zero")
	}
	stream := seedrand.NewStream(32)
	sw, err := core.NewRevsortSwitch(4096, 3072)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sw)
	msgs := RandomMessages(&stream, 4096, 0.6, 32)
	// Warm up buffers (and the kernel's scratch pool).
	for i := 0; i < 2; i++ {
		if _, err := r.Run(msgs); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		if _, err := r.Run(msgs); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("steady-state Runner.Run allocated %v times per run", a)
	}
}

// TestRunSizesDeliveredOnce checks that the package-level Run, one
// round of a fresh Runner as every pool attempt makes, sizes its
// delivery list once: at n=1024, 400 delivered messages cost the
// allocations 4 do.
func TestRunSizesDeliveredOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts vary")
	}
	sw, err := core.NewPerfectSwitch(1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(k int) float64 {
		msgs := make([]Message, k)
		for i := range msgs {
			msgs[i] = Message{Input: 2 * i, Payload: []byte{1, 0}}
		}
		res, err := Run(sw, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Delivered) != k {
			t.Fatalf("%d messages: delivered %d", k, len(res.Delivered))
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(sw, msgs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(4), allocs(400); few != many {
		t.Errorf("Run allocates %v times for 4 messages but %v for 400", few, many)
	}
}

package switchsim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/seedrand"
)

func TestNewMessageAndDecode(t *testing.T) {
	m := NewMessage(3, []byte("Hi"))
	if m.Input != 3 || len(m.Payload) != 16 {
		t.Fatalf("message = %+v", m)
	}
	if got := DecodePayload(m.Payload); !bytes.Equal(got, []byte("Hi")) {
		t.Errorf("decode = %q", got)
	}
	// Trailing partial byte ignored.
	if got := DecodePayload(m.Payload[:12]); !bytes.Equal(got, []byte("H")) {
		t.Errorf("partial decode = %q", got)
	}
}

func TestRunValidation(t *testing.T) {
	sw, _ := core.NewPerfectSwitch(4, 2)
	if _, err := Run(sw, []Message{{Input: 4}}); err == nil {
		t.Error("accepted out-of-range input")
	}
	if _, err := Run(sw, []Message{{Input: 1}, {Input: 1}}); err == nil {
		t.Error("accepted duplicate input")
	}
}

// CheckGuarantee pairs deliveries with messages in order: a delivery
// from an input that sent nothing fails even with an empty payload, and
// so do deliveries out of the messages' order.
func TestCheckGuaranteeWalksMessageOrder(t *testing.T) {
	sw, _ := core.NewPerfectSwitch(8, 8)
	msgs := []Message{{Input: 1}, {Input: 4}, {Input: 7}}
	res, err := Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGuarantee(sw, msgs, res); err != nil {
		t.Fatal(err)
	}
	res.Delivered[1].Input = 5
	if CheckGuarantee(sw, msgs, res) == nil {
		t.Error("passed a delivery from input 5, which sent nothing")
	}
	res.Delivered[1].Input = 4
	res.Delivered[0], res.Delivered[1] = res.Delivered[1], res.Delivered[0]
	if CheckGuarantee(sw, msgs, res) == nil {
		t.Error("passed deliveries out of the messages' order")
	}
}

func TestRunDeliversIntactPayloads(t *testing.T) {
	sw, _ := core.NewPerfectSwitch(8, 8)
	msgs := []Message{
		NewMessage(1, []byte("alpha")),
		NewMessage(4, []byte("beta")),
		NewMessage(7, []byte("c")),
	}
	res, err := Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGuarantee(sw, msgs, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) != 3 || len(res.DroppedInputs) != 0 {
		t.Fatalf("delivered %d, dropped %d", len(res.Delivered), len(res.DroppedInputs))
	}
	// Stable hyperconcentrator: messages exit on outputs 0,1,2 in input
	// order.
	texts := map[int]string{0: "alpha", 1: "beta", 2: "c"}
	for _, d := range res.Delivered {
		if got := string(DecodePayload(d.Payload)); got != texts[d.Output] {
			t.Errorf("output %d carries %q, want %q", d.Output, got, texts[d.Output])
		}
	}
	if res.Cycles != 1+5*8 {
		t.Errorf("Cycles = %d, want %d", res.Cycles, 1+40)
	}
}

func TestRunCongestionDropsExcess(t *testing.T) {
	sw, _ := core.NewPerfectSwitch(8, 2)
	var msgs []Message
	for i := 0; i < 5; i++ {
		msgs = append(msgs, NewMessage(i, []byte{byte(i)}))
	}
	res, err := Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) != 2 || len(res.DroppedInputs) != 3 {
		t.Fatalf("delivered %d, dropped %d; want 2, 3", len(res.Delivered), len(res.DroppedInputs))
	}
	if err := CheckGuarantee(sw, msgs, res); err != nil {
		t.Fatal(err)
	}
}

// TestIdleOutputsStayLow: a wire with no established path idles at 0,
// even on a Runner whose previous round drove every wire high.
func TestIdleOutputsStayLow(t *testing.T) {
	sw, _ := core.NewPerfectSwitch(4, 4)
	r := NewRunner(sw)
	high := make([]Message, 4)
	for i := range high {
		high[i] = Message{Input: i, Payload: []byte{1, 1, 1}}
	}
	if _, err := r.Run(high); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run([]Message{{Input: 2, Payload: []byte{1, 1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	want := "setup: valid=0010  (then 3 payload cycles)\n" +
		"out   0  111 <- input 2\n" +
		"out   1  ___ (idle)\n" +
		"out   2  ___ (idle)\n" +
		"out   3  ___ (idle)\n"
	if got := waveform(t, res, 4); got != want {
		t.Fatalf("waveform:\n%s\nwant:\n%s", got, want)
	}
}

func TestMixedLengthPayloads(t *testing.T) {
	sw, _ := core.NewPerfectSwitch(4, 4)
	msgs := []Message{
		{Input: 0, Payload: []byte{1}},
		{Input: 1, Payload: []byte{1, 0, 1, 1}},
	}
	res, err := Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 5 {
		t.Errorf("Cycles = %d, want 5", res.Cycles)
	}
	if err := CheckGuarantee(sw, msgs, res); err != nil {
		t.Fatal(err)
	}
}

// TestCheckGuaranteeNamesCorruptCycle corrupts one delivered bit at a
// time, for every payload length from 1 to 40 bits and every cycle, and
// requires the error to name that message's input and that cycle. The
// bit is flipped, set to 2, or set to 2 with the sent byte made 2 as
// well: the wire carries bit 0 of each sent byte, so a delivered 2 is
// corrupt whatever was sent. One message sends bits, one random bytes
// and one 0xFF bytes, which arrive intact as all 1s.
func TestCheckGuaranteeNamesCorruptCycle(t *testing.T) {
	sw, err := core.NewPerfectSwitch(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for bits := 1; bits <= 40; bits++ {
		msgs := []Message{{Input: 1}, {Input: 4}, {Input: 6}}
		for k := range msgs {
			msgs[k].Payload = make([]byte, bits)
		}
		for c := 0; c < bits; c++ {
			msgs[0].Payload[c] = byte(rng.Intn(2))
			msgs[1].Payload[c] = byte(rng.Intn(256))
			msgs[2].Payload[c] = 0xFF
		}
		res, err := Run(sw, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckGuarantee(sw, msgs, res); err != nil {
			t.Fatalf("%d bits: intact delivery rejected: %v", bits, err)
		}
		// The perfect switch delivers every message, in the messages' order.
		for k, d := range res.Delivered {
			sent := msgs[k].Payload
			for c := range d.Payload {
				got, was := d.Payload[c], sent[c]
				for _, bad := range [][2]byte{{got ^ 1, was}, {2, was}, {2, 2}} {
					d.Payload[c], sent[c] = bad[0], bad[1]
					want := fmt.Sprintf("switchsim: message from input %d corrupted at cycle %d", d.Input, c)
					if err := CheckGuarantee(sw, msgs, res); err == nil || err.Error() != want {
						t.Fatalf("%d bits, cycle %d delivered %d for sent %d: got error %v, want %q",
							bits, c, bad[0], bad[1], err, want)
					}
				}
				d.Payload[c], sent[c] = got, was
			}
		}
		short := res.Delivered[1].Payload
		res.Delivered[1].Payload = short[:bits-1]
		want := fmt.Sprintf("switchsim: message from input 4 delivered %d bits, sent %d", bits-1, bits)
		if err := CheckGuarantee(sw, msgs, res); err == nil || err.Error() != want {
			t.Fatalf("%d bits: short delivery gave error %v, want %q", bits, err, want)
		}
		res.Delivered[1].Payload = short
	}
}

// Bit-serial streaming through the actual multichip switches, with the
// guarantee checker. This is the paper's Figure 3 / Figure 6 scenario
// made executable.
func TestMultichipSwitchesEndToEnd(t *testing.T) {
	stream := seedrand.NewStream(91)
	rng := rand.New(&stream)
	rev, err := core.NewRevsortSwitch(64, 28)
	if err != nil {
		t.Fatal(err)
	}
	col, err := core.NewColumnsortSwitch(8, 4, 18)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []core.Concentrator{rev, col} {
		for trial := 0; trial < 40; trial++ {
			load := rng.Float64()
			msgs := RandomMessages(&stream, sw.Inputs(), load, 16)
			res, err := Run(sw, msgs)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckGuarantee(sw, msgs, res); err != nil {
				t.Fatalf("%s: %v", sw.Name(), err)
			}
		}
	}
}

// The exact Figure 3 scenario: n=64, m=28, 24 valid messages — all 24
// must be routed (24 ≤ αm).
func TestFigure3Scenario(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 28)
	if err != nil {
		t.Fatal(err)
	}
	// ε for n=64 is (2·⌈64^{1/4}⌉−1)·8 = 5·8 = 40 > m = 28: the
	// worst-case bound is vacuous at the figure's size, yet the figure
	// shows all 24 routed for its particular pattern. Check the real
	// switch over many 24-message patterns: it must never fall far
	// short, and full delivery must occur for some patterns (the
	// figure's situation).
	rng := rand.New(rand.NewSource(92))
	sawFull := false
	worst := 24
	for trial := 0; trial < 100; trial++ {
		perm := rng.Perm(64)[:24]
		var msgs []Message
		for _, in := range perm {
			msgs = append(msgs, NewMessage(in, []byte{byte(in)}))
		}
		res, err := Run(sw, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Delivered) == 24 {
			sawFull = true
		}
		if len(res.Delivered) < worst {
			worst = len(res.Delivered)
		}
	}
	if !sawFull {
		t.Error("Figure 3: no 24-message pattern was fully routed")
	}
	if worst < 20 {
		t.Errorf("Figure 3: worst delivery %d of 24 is implausibly low", worst)
	}
}

// The exact Figure 6 scenario: r=8, s=4 (n=32), m=18, 14 valid
// messages: αm = 18−9 = 9 guaranteed; the figure shows all 14 routed.
func TestFigure6Scenario(t *testing.T) {
	sw, err := core.NewColumnsortSwitch(8, 4, 18)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	perm := rng.Perm(32)[:14]
	var msgs []Message
	for _, in := range perm {
		msgs = append(msgs, NewMessage(in, []byte{byte(in)}))
	}
	res, err := Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGuarantee(sw, msgs, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) != 14 {
		t.Errorf("Figure 6: delivered %d of 14 messages", len(res.Delivered))
	}
}

func TestRandomMessagesLoad(t *testing.T) {
	stream := seedrand.NewStream(94)
	msgs := RandomMessages(&stream, 1000, 0.3, 8)
	if len(msgs) < 200 || len(msgs) > 400 {
		t.Errorf("load 0.3 over 1000 inputs produced %d messages", len(msgs))
	}
	seen := map[int]bool{}
	for _, m := range msgs {
		if seen[m.Input] {
			t.Fatal("duplicate input")
		}
		seen[m.Input] = true
		if len(m.Payload) != 8 {
			t.Fatal("wrong payload length")
		}
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(); err == nil {
		t.Error("accepted empty pipeline")
	}
	a, _ := core.NewPerfectSwitch(8, 6)
	b, _ := core.NewPerfectSwitch(4, 2)
	if _, err := NewPipeline(a, b); err == nil {
		t.Error("accepted incompatible stages")
	}
}

func TestPipelineTwoStage(t *testing.T) {
	// 32 → 16 → 4: two perfect concentrators in series.
	a, _ := core.NewPerfectSwitch(32, 16)
	b, _ := core.NewPerfectSwitch(16, 4)
	p, err := NewPipeline(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stages() != 2 || p.Inputs() != 32 || p.Outputs() != 4 {
		t.Error("pipeline accessors wrong")
	}
	if p.GateDelays() != a.GateDelays()+b.GateDelays() {
		t.Error("pipeline delay should sum stages")
	}
	stream := seedrand.NewStream(95)
	msgs := RandomMessages(&stream, 32, 0.5, 8)
	pr, err := p.Run(msgs)
	if err != nil {
		t.Fatal(err)
	}
	wantDelivered := len(msgs)
	if wantDelivered > 4 {
		wantDelivered = 4
	}
	if len(pr.Delivered) != wantDelivered {
		t.Errorf("delivered %d, want %d", len(pr.Delivered), wantDelivered)
	}
	totalDropped := 0
	for _, ds := range pr.DroppedAtStage {
		totalDropped += len(ds)
	}
	if len(pr.Delivered)+totalDropped != len(msgs) {
		t.Error("messages unaccounted for")
	}
	// Outputs distinct and in range.
	used := map[int]bool{}
	for orig, out := range pr.Delivered {
		if out < 0 || out >= 4 || used[out] {
			t.Fatalf("bad final output %d for input %d", out, orig)
		}
		used[out] = true
	}
}

// A pipeline mixing multichip partial concentrators: the §1 usage where
// an (n/α, m/α, α) partial concentrator replaces an n-by-m perfect one.
func TestPipelineWithPartialConcentrators(t *testing.T) {
	col, err := core.NewColumnsortSwitch(16, 4, 32) // 64 → 32, ε=9
	if err != nil {
		t.Fatal(err)
	}
	post, _ := core.NewPerfectSwitch(32, 8)
	p, err := NewPipeline(col, post)
	if err != nil {
		t.Fatal(err)
	}
	stream := seedrand.NewStream(96)
	for trial := 0; trial < 20; trial++ {
		msgs := RandomMessages(&stream, 64, 0.25, 8)
		pr, err := p.Run(msgs)
		if err != nil {
			t.Fatal(err)
		}
		// With k ≈ 16 ≤ αm = 23 at stage 1, the partial concentrator
		// must not drop anything; stage 2 keeps min(k, 8).
		k := len(msgs)
		if k <= 23 && len(pr.DroppedAtStage[0]) > 0 {
			t.Fatalf("stage 1 dropped %d messages with k=%d ≤ αm", len(pr.DroppedAtStage[0]), k)
		}
	}
}

// randomMessagesPerPayload is RandomMessages with one allocation per
// payload, the reference the shared-buffer batch must equal draw for
// draw.
func randomMessagesPerPayload(rng *rand.Rand, n int, load float64, payloadBits int) []Message {
	var msgs []Message
	for i := 0; i < n; i++ {
		if rng.Float64() < load {
			p := make([]byte, payloadBits)
			for b := range p {
				p[b] = byte(rng.Intn(2))
			}
			msgs = append(msgs, Message{Input: i, Payload: p})
		}
	}
	return msgs
}

// trafficPositions are where the twin checks start a stream: inside
// the 273-draw window, on both sides of its end, where the register is
// built, and past one and several 607-word wraps.
var trafficPositions = []int{0, 1, 150, 272, 273, 274, 606, 607, 1821, 5000}

// checkRandomMessages draws two batches from a seedrand.Stream sought
// to pos and from math/rand after pos draws, and fails unless each
// batch equals the per-payload reference (non-nil empty payloads at 0
// bits, nil for an empty batch) with the same next Int63 after it,
// and every payload is capped at its own length, so an append to one
// leaves its neighbour alone.
func checkRandomMessages(t *testing.T, seed int64, pos, n int, load float64, bits int) {
	t.Helper()
	s := seedrand.NewStream(seed)
	s.Seek(uint64(pos))
	r := rand.New(rand.NewSource(seed))
	for range pos {
		r.Int63()
	}
	for batch := range 2 {
		got := RandomMessages(&s, n, load, bits)
		want := randomMessagesPerPayload(r, n, load, bits)
		label := fmt.Sprintf("n=%d load=%v bits=%d seed %d pos %d batch %d", n, load, bits, seed, pos, batch)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: batch differs from the per-payload reference", label)
		}
		if s.Int63() != r.Int63() {
			t.Fatalf("%s: the batch drew a different number of variates", label)
		}
		for k := range got {
			if p := got[k].Payload; p == nil || cap(p) != len(p) {
				t.Fatalf("%s: message %d payload nil or not capped (len %d cap %d)", label, k, len(p), cap(p))
			}
		}
		if len(got) >= 2 && bits > 0 {
			next := append([]byte(nil), got[1].Payload...)
			_ = append(got[0].Payload, 1, 1, 1)
			if !bytes.Equal(got[1].Payload, next) {
				t.Fatalf("%s: appending to one payload overwrote the next", label)
			}
		}
	}
}

// TestRandomMessagesSharedBuffer checks RandomMessages on a
// seedrand.Stream against the per-payload reference on math/rand over
// seeded calls from every trafficPositions start.
func TestRandomMessagesSharedBuffer(t *testing.T) {
	for _, tc := range []struct {
		n    int
		load float64
		bits int
	}{
		{256, 0.7, 8}, {1024, 0.4, 16}, {64, 1, 3}, {500, 1.5, 2},
		{100, 0, 8}, {50, -1, 4}, {33, 0.5, 0}, {3000, 0.02, 5},
		{70, math.NaN(), 8}, {-5, 1, 4},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, pos := range trafficPositions {
				checkRandomMessages(t, seed, pos, tc.n, tc.load, tc.bits)
			}
		}
	}
}

// FuzzRandomMessagesMatchesMathRand checks RandomMessages on a
// seedrand.Stream against the per-payload reference on math/rand for
// any seed, start position, input count, load and payload width.
func FuzzRandomMessagesMatchesMathRand(f *testing.F) {
	for i, pos := range trafficPositions {
		f.Add(int64(i), uint16(pos), uint16(256), 0.7, uint8(8))
	}
	f.Add(int64(-3), uint16(272), uint16(5000), 0.02, uint8(0))
	f.Add(int64(9), uint16(0), uint16(64), math.NaN(), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, pos, n uint16, load float64, bits uint8) {
		checkRandomMessages(t, seed, int(pos), int(n%5000), load, int(bits%40))
	})
}

// BenchmarkRandomMessages draws one chaos replay's batch per op (n =
// 256, load 0.7, 8-bit payloads) from one long stream.
func BenchmarkRandomMessages(b *testing.B) {
	s := seedrand.NewStream(1)
	b.ReportAllocs()
	sent := 0
	for i := 0; i < b.N; i++ {
		sent += len(RandomMessages(&s, 256, 0.7, 8))
	}
	if sent == 0 {
		b.Fatal("no traffic")
	}
}

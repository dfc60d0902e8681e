package health

import (
	"reflect"
	"testing"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
	"concentrators/internal/link"
	"concentrators/internal/overload"
	"concentrators/internal/switchsim"
	"concentrators/internal/timing"
)

// FuzzFaultSessionLaw drives fault sessions with an arbitrary policy,
// load, ack delay, scan cadence, seed, deadline (0–3), CoDel target
// (Resend and Buffer), retry budget (Resend) and up to three chip
// faults, on Revsort n=16 and Columnsort 8×4. Every run must balance
// the conservation law Offered = Delivered + Dropped +
// CorruptedDropped + DeadlineMissed + Shed + FinalBacklog, split
// LatencyHistogram exactly into its first-try and retried halves, and
// replay on the same switch to identical stats.
func FuzzFaultSessionLaw(f *testing.F) {
	f.Add(uint8(2), uint8(230), uint8(2), uint8(7), int64(1), uint8(2), uint32(0x12345678), uint32(0x9abcdef0), uint32(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(255), uint8(1), uint8(0), int64(7), uint8(3), uint32(0x00010203), uint32(0x40506071), uint32(0xfedcba98), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(5), uint8(180), uint8(0), uint8(3), int64(1987), uint8(1), uint32(0x0f0f0f0f), uint32(0), uint32(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(6), uint8(200), uint8(0), uint8(5), int64(-3), uint8(0), uint32(0), uint32(0), uint32(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(240), uint8(1), uint8(4), int64(11), uint8(2), uint32(0x31415926), uint32(0x27182818), uint32(0), uint8(1), uint8(2), uint8(25))
	f.Fuzz(func(t *testing.T, shape, load, ack, scanEvery uint8, seed int64,
		nfaults uint8, f1, f2, f3 uint32, deadline, codelTarget, budget uint8) {
		const rounds = 24
		var sw core.FaultInjectable
		var err error
		if shape%2 == 0 {
			sw, err = core.NewRevsortSwitch(16, 12)
		} else {
			sw, err = core.NewColumnsortSwitch(8, 4, 24)
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg := FaultSessionConfig{
			SessionConfig: switchsim.SessionConfig{
				Policy: switchsim.Policy(shape / 2 % 4), Load: float64(load) / 255,
				Rounds: rounds, PayloadBits: 2, Seed: seed,
			},
			ScanEvery: int(scanEvery % 10),
		}
		cfg.Deadline = int(deadline % 4)
		if cfg.Policy == switchsim.Resend {
			cfg.AckDelay = int(ack % 4)
			if budget != 0 {
				cfg.RetryBudget = &overload.RetryConfig{Budget: float64(budget) / 256}
			}
		}
		if target := int(codelTarget % 4); target > 0 && (cfg.Policy == switchsim.Resend || cfg.Policy == switchsim.Buffer) {
			cfg.CoDel = &overload.CoDelConfig{Target: target}
		}
		stages := sw.StageChips()
		for _, code := range []uint32{f1, f2, f3}[:nfaults%4] {
			si := int(code % uint32(len(stages)))
			st := stages[si]
			a := int(code>>16) % st.Ports
			cfg.Schedule = append(cfg.Schedule, ScheduledFault{
				Round: int(code>>27) % rounds,
				Fault: core.ChipFault{
					Stage: si, Chip: int(code>>4) % st.Chips, Mode: core.ChipFaultMode((code >> 12) % 4),
					A: a, B: (a + 1 + int(code>>24)%(st.Ports-1)) % st.Ports,
				},
			})
		}

		st, err := RunFaultAwareSession(sw, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if got := st.Delivered + st.Dropped + st.CorruptedDropped + st.DeadlineMissed + st.Shed + st.FinalBacklog; got != st.Offered {
			t.Fatalf("delivered %d + dropped %d + corrupted %d + missed %d + shed %d + backlog %d = %d, offered %d",
				st.Delivered, st.Dropped, st.CorruptedDropped, st.DeadlineMissed, st.Shed, st.FinalBacklog, got, st.Offered)
		}
		checkLatencySplit(t, &st.SessionStats)
		again, err := RunFaultAwareSession(sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("replay diverged:\n%+v\n%+v", st, again)
		}
	})
}

// checkLatencySplit asserts that LatencyHistogram splits exactly into
// its first-try and retried halves.
func checkLatencySplit(t *testing.T, st *switchsim.SessionStats) {
	t.Helper()
	split := map[int]int{}
	for lat, c := range st.FirstTryLatencyHistogram {
		split[lat] += c
	}
	for lat, c := range st.RetriedLatencyHistogram {
		split[lat] += c
	}
	if !reflect.DeepEqual(split, st.LatencyHistogram) {
		t.Fatalf("first-try + retried latencies %v, combined %v", split, st.LatencyHistogram)
	}
}

// FuzzIntegritySessionLaw drives wire-integrity sessions through
// RunIntegritySession and its escalator on the two corpus switches,
// with an arbitrary seed, load, ARQ window (1–8), CRC, retransmit
// budget (0–8), ack delay (0–3), ambient BER (0, 1e-3 or 1e-2), one
// stuck, erasure or noisy wire (any stage, a round window or for
// good), an optional timing Jitter plane (stage 0 or every stage),
// adaptive RTO and a deadline (0–7). Every run must balance the law
// Offered = Delivered + Dropped + CorruptedDropped + DeadlineMissed +
// FinalBacklog, agree with its integrity stats on the backlog and the
// retransmits, book one DeliveredPerRound per delivery on time or
// late, split LatencyHistogram exactly, keep its live contract within
// the switch's m outputs and list its quarantined inputs once each,
// ascending.
func FuzzIntegritySessionLaw(f *testing.F) {
	// A stall over missed corruption once booked a frame Delivered
	// twice: Revsort, load 0.5, window 4, CRCNone, ack delay 2, BER
	// 1e-2 and a Jitter plane on stage 0 (Prob 0.5, MaxDelay 8).
	f.Add(int64(1), true, uint8(128), uint8(3), uint8(0), uint8(0), uint8(2), uint8(2), uint32(0), uint8(117), false, uint8(0))
	f.Add(int64(5), false, uint8(77), uint8(3), uint8(2), uint8(2), uint8(2), uint8(1), uint32(2|3<<2|7<<8|10<<17|8<<23), uint8(0), false, uint8(0))
	f.Add(int64(5), true, uint8(230), uint8(3), uint8(2), uint8(0), uint8(2), uint8(1), uint32(0), uint8(1|2|1<<2|7<<4), true, uint8(4))
	f.Add(int64(9), false, uint8(200), uint8(7), uint8(1), uint8(1), uint8(0), uint8(0), uint32(1|0<<2|3<<8), uint8(0), true, uint8(2))
	f.Add(int64(-3), true, uint8(255), uint8(0), uint8(1), uint8(5), uint8(3), uint8(2), uint32(3|1<<2|40<<8|5<<17), uint8(1|3<<2|2<<4), false, uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, revsort bool, load, window, crc, budget, ack, ber uint8,
		wire uint32, stall uint8, adaptive bool, deadline uint8) {
		const rounds = 40
		name := "columnsort/16x4"
		if revsort {
			name = "revsort/64"
		}
		sw := sessionSwitch(t, name)
		noise := link.NewCorruptionPlane(seed)
		if b := []float64{0, 1e-3, 1e-2}[ber%3]; b > 0 {
			if err := noise.Add(link.WireFault{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: b}); err != nil {
				t.Fatal(err)
			}
		}
		// wire packs the wire fault: bits 0–1 the mode (none, stuck,
		// erasure, noisy), 2–7 the stage, 8–15 the wire, 16 the stuck
		// value, 17–22 the first round and 23 up the span (0: for good).
		if mode := wire % 4; mode > 0 {
			wf := link.WireFault{
				Stage: int(wire>>2&63) % (len(sw.StageChips()) + 1), Wire: int(wire>>8&255) % sw.Outputs(),
				Mode: []link.WireFaultMode{link.WireStuck, link.WireErasure, link.WireBitFlip}[mode-1],
				BER:  0.1, StuckValue: byte(wire>>16) & 1, From: int(wire>>17&63) % rounds,
			}
			if span := int(wire>>23) % rounds; span > 0 {
				wf.Until = wf.From + span
			}
			if err := noise.Add(wf); err != nil {
				t.Fatal(err)
			}
		}
		cfg := switchsim.SessionConfig{
			Policy: switchsim.Resend, Load: float64(load) / 255, Rounds: rounds, PayloadBits: 16,
			AckDelay: int(ack % 4), Deadline: int(deadline % 8), Seed: seed,
			Integrity: &switchsim.IntegrityConfig{
				CRC: link.CRC(crc % 3), Window: 1 + int(window%8), MaxRetransmits: int(budget % 9),
				Corruption: noise, AdaptiveRTO: adaptive,
			},
		}
		// stall packs the timing plane: bit 0 arms it, bit 1 puts it on
		// every stage instead of stage 0, bits 2–3 the stall
		// probability in quarters and 4–6 the maximum delay less one.
		if stall%2 == 1 {
			tp := timing.NewPlane(seed)
			stage := 0
			if stall&2 != 0 {
				stage = link.AllStages
			}
			if err := tp.Add(timing.Fault{
				Stage: stage, Wire: link.AllWires, Mode: timing.Jitter,
				Prob: float64(1+stall>>2&3) / 4, MaxDelay: 1 + int(stall>>4&7),
			}); err != nil {
				t.Fatal(err)
			}
			cfg.Integrity.Timing = tp
		}

		st, err := RunIntegritySession(sw, cfg)
		if err != nil {
			t.Fatalf("%+v / %+v: %v", cfg, *cfg.Integrity, err)
		}
		ist := st.Integrity
		if got := st.Delivered + st.Dropped + st.CorruptedDropped + st.DeadlineMissed + st.FinalBacklog; got != st.Offered {
			t.Fatalf("delivered %d + dropped %d + corrupted %d + missed %d + backlog %d = %d, offered %d",
				st.Delivered, st.Dropped, st.CorruptedDropped, st.DeadlineMissed, st.FinalBacklog, got, st.Offered)
		}
		if ist.FinalBacklog != st.FinalBacklog {
			t.Fatalf("integrity backlog %d, session backlog %d", ist.FinalBacklog, st.FinalBacklog)
		}
		if ist.Retransmits != st.Retries {
			t.Fatalf("retransmits %d, retries %d", ist.Retransmits, st.Retries)
		}
		booked := 0
		for _, c := range st.DeliveredPerRound {
			booked += c
		}
		if booked != st.Delivered+st.DeadlineMissed {
			t.Fatalf("DeliveredPerRound sums to %d, delivered %d + missed %d", booked, st.Delivered, st.DeadlineMissed)
		}
		checkLatencySplit(t, st)
		if ist.LiveOutputs > sw.Outputs() {
			t.Fatalf("live outputs %d > m = %d", ist.LiveOutputs, sw.Outputs())
		}
		for i := 1; i < len(ist.InputsQuarantined); i++ {
			if ist.InputsQuarantined[i] <= ist.InputsQuarantined[i-1] {
				t.Fatalf("quarantined inputs %v not strictly ascending", ist.InputsQuarantined)
			}
		}
	})
}

// FuzzDegradedRoute scans and degrades a small switch (Revsort n=16 or
// 64, Columnsort 8×4 or 9×3) carrying one to three chip faults,
// optionally adds a later fault the degradation does not cover, and
// routes one valid vector (bit i of valid marks input i). The degraded
// route is checked against the inner route under the repaired plane:
// every output is −1 or in [0, Outputs()), no degraded output carries
// two inputs, an input the inner route put on a live wire o sits at
// remap[o], and every other input is −1 or sits on a degraded output
// the inner route left free.
func FuzzDegradedRoute(f *testing.F) {
	// A quarantined final-stage wire beside a bypassed final-stage chip
	// (repair taps and quarantine re-drive in one route), then a later
	// stuck output whose phantom lands on an idle input.
	f.Add(uint8(0), uint8(1), uint32(3|0<<4|1<<12|1<<16), uint32(3|3<<4|0<<12), uint32(0), true, uint32(3|1<<4|1<<12), uint64(0x5a5a))
	// The pool's shape: a bypassed first-stage chip and a quarantined
	// final-stage wire, on Columnsort 8×4.
	f.Add(uint8(2), uint8(1), uint32(0|2<<4|0<<12), uint32(1|1<<4|1<<12|5<<16), uint32(0), false, uint32(0), uint64(0xffff00ff))
	f.Add(uint8(1), uint8(2), uint32(1|7<<4|3<<12), uint32(2|3<<4|2<<12|4<<16|9<<24), uint32(3|2<<4|1<<12|3<<16), true, uint32(0|5<<4|1<<12), uint64(0x0123456789abcdef))
	f.Add(uint8(3), uint8(0), uint32(1|2<<4|0<<12), uint32(0), uint32(0), false, uint32(0), uint64(0x7ffffff))
	f.Fuzz(func(t *testing.T, shape, nfaults uint8, f1, f2, f3 uint32, addLater bool, later uint32, valid uint64) {
		var sw core.FaultInjectable
		var err error
		switch shape % 4 {
		case 0:
			sw, err = core.NewRevsortSwitch(16, 12)
		case 1:
			sw, err = core.NewRevsortSwitch(64, 48)
		case 2:
			sw, err = core.NewColumnsortSwitch(8, 4, 24)
		default:
			sw, err = core.NewColumnsortSwitch(9, 3, 20)
		}
		if err != nil {
			t.Fatal(err)
		}
		// A code packs a fault: bits 0–3 the stage, 4–11 the chip,
		// 12–13 the mode, 16–23 port A and 24 up B's offset from A.
		stages := sw.StageChips()
		fault := func(code uint32) core.ChipFault {
			si := int(code&15) % len(stages)
			st := stages[si]
			a := int(code>>16&255) % st.Ports
			return core.ChipFault{
				Stage: si, Chip: int(code>>4&255) % st.Chips, Mode: core.ChipFaultMode(code >> 12 & 3),
				A: a, B: (a + 1 + int(code>>24)%(st.Ports-1)) % st.Ports,
			}
		}
		p := core.NewFaultPlane()
		for _, code := range []uint32{f1, f2, f3}[:1+nfaults%3] { // one to three faults
			p.Add(fault(code))
		}
		if err := sw.SetFaultPlane(p); err != nil {
			t.Fatal(err)
		}
		rep, err := Scan(sw)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		d, err := NewDegradedSwitch(sw, rep.Faults)
		if err != nil {
			t.Fatal(err)
		}
		if addLater {
			p.Add(fault(later))
		}
		v := bitvec.New(sw.Inputs())
		for i := 0; i < v.Len(); i++ {
			v.Set(i, valid>>uint(i)&1 == 1)
		}
		inner, err := sw.RouteWithPlane(v, d.effectivePlane())
		if err != nil {
			t.Fatal(err)
		}
		out, err := d.Route(v)
		if err != nil {
			t.Fatal(err)
		}
		mp := d.Outputs()
		innerTaken := make([]bool, mp)
		for _, o := range inner {
			if o >= 0 && d.remap[o] >= 0 {
				innerTaken[d.remap[o]] = true
			}
		}
		carrier := make(map[int]int)
		for i, o := range out {
			if o == -1 {
				continue
			}
			if o < 0 || o >= mp {
				t.Fatalf("%s: input %d on output %d, outside [0, %d)", d.Name(), i, o, mp)
			}
			if j, dup := carrier[o]; dup {
				t.Fatalf("%s: output %d carries inputs %d and %d", d.Name(), o, j, i)
			}
			carrier[o] = i
		}
		for i, o := range inner {
			switch {
			case o >= 0 && d.remap[o] >= 0:
				if out[i] != d.remap[o] {
					t.Fatalf("%s: input %d on live wire %d sits at %d, want %d", d.Name(), i, o, out[i], d.remap[o])
				}
			case out[i] != -1 && innerTaken[out[i]]:
				t.Fatalf("%s: input %d re-driven onto output %d, which the inner route took", d.Name(), i, out[i])
			}
		}
	})
}

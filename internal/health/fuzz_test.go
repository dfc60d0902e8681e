package health

import (
	"reflect"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/overload"
	"concentrators/internal/switchsim"
)

// FuzzFaultSessionLaw drives fault sessions with an arbitrary policy,
// load, ack delay, backoff cap (0 or at least the ack delay), scan
// cadence, seed, deadline (0–3), CoDel target (Resend and Buffer),
// retry budget (Resend, with the backoff cap 0) and up to three chip
// faults, on Revsort n=16 and Columnsort 8×4. Every run must balance
// the conservation law Offered = Delivered + Dropped +
// CorruptedDropped + DeadlineMissed + Shed + FinalBacklog, split
// LatencyHistogram exactly into its first-try and retried halves, and
// replay to identical stats.
func FuzzFaultSessionLaw(f *testing.F) {
	f.Add(uint8(2), uint8(230), uint8(2), uint8(0), uint8(7), true, int64(1), uint8(2), uint32(0x12345678), uint32(0x9abcdef0), uint32(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(255), uint8(1), uint8(4), uint8(0), false, int64(7), uint8(3), uint32(0x00010203), uint32(0x40506071), uint32(0xfedcba98), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(5), uint8(180), uint8(0), uint8(0), uint8(3), true, int64(1987), uint8(1), uint32(0x0f0f0f0f), uint32(0), uint32(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(6), uint8(200), uint8(0), uint8(0), uint8(5), false, int64(-3), uint8(0), uint32(0), uint32(0), uint32(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(240), uint8(1), uint8(0), uint8(4), true, int64(11), uint8(2), uint32(0x31415926), uint32(0x27182818), uint32(0), uint8(1), uint8(2), uint8(25))
	f.Fuzz(func(t *testing.T, shape, load, ack, backoff, scanEvery uint8, onViolation bool, seed int64,
		nfaults uint8, f1, f2, f3 uint32, deadline, codelTarget, budget uint8) {
		const rounds = 24
		newSwitch := func() core.FaultInjectable {
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
			return sw
		}
		cfg := FaultSessionConfig{
			SessionConfig: switchsim.SessionConfig{
				Policy: switchsim.Policy(shape / 2 % 4), Load: float64(load) / 255,
				Rounds: rounds, PayloadBits: 2, Seed: seed,
			},
			ScanEvery:       int(scanEvery % 10),
			ScanOnViolation: onViolation,
		}
		cfg.Deadline = int(deadline % 4)
		if cfg.Policy == switchsim.Resend {
			cfg.AckDelay = int(ack % 4)
			if b := int(backoff % 16); b >= cfg.AckDelay {
				cfg.BackoffMax = b
			}
			if budget != 0 {
				cfg.RetryBudget = &overload.RetryConfig{Budget: float64(budget) / 256}
				cfg.BackoffMax = 0
			}
		}
		if target := int(codelTarget % 4); target > 0 && (cfg.Policy == switchsim.Resend || cfg.Policy == switchsim.Buffer) {
			cfg.CoDel = &overload.CoDelConfig{Target: target}
		}
		stages := newSwitch().StageChips()
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

		st, err := RunFaultAwareSession(newSwitch(), cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if got := st.Delivered + st.Dropped + st.CorruptedDropped + st.DeadlineMissed + st.Shed + st.FinalBacklog; got != st.Offered {
			t.Fatalf("delivered %d + dropped %d + corrupted %d + missed %d + shed %d + backlog %d = %d, offered %d",
				st.Delivered, st.Dropped, st.CorruptedDropped, st.DeadlineMissed, st.Shed, st.FinalBacklog, got, st.Offered)
		}
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
		again, err := RunFaultAwareSession(newSwitch(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("replay diverged:\n%+v\n%+v", st, again)
		}
	})
}

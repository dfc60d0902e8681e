package switchsim

import (
	"math"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/link"
	"concentrators/internal/timing"
)

func integrityBase() SessionConfig {
	return SessionConfig{
		Policy:      Resend,
		Load:        0.6,
		Rounds:      80,
		PayloadBits: 16,
		Seed:        7,
		AckDelay:    1,
		Integrity:   &IntegrityConfig{CRC: link.CRC16, Window: 4},
	}
}

func TestIntegrityConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*SessionConfig)
	}{
		{"integrity under drop", func(c *SessionConfig) { c.Policy = Drop; c.AckDelay = 0 }},
		{"integrity under buffer", func(c *SessionConfig) { c.Policy = Buffer; c.AckDelay = 0 }},
		{"unknown CRC", func(c *SessionConfig) { c.Integrity.CRC = link.CRC(9) }},
		{"negative window", func(c *SessionConfig) { c.Integrity.Window = -1 }},
		{"window past seq ambiguity", func(c *SessionConfig) { c.Integrity.Window = link.SeqSpace/2 + 1 }},
		{"negative retransmit budget", func(c *SessionConfig) { c.Integrity.MaxRetransmits = -2 }},
		{"bad monitor threshold", func(c *SessionConfig) { c.Integrity.Monitor.Threshold = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := integrityBase()
			ic := *cfg.Integrity
			cfg.Integrity = &ic
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %+v / %+v", cfg, cfg.Integrity)
			}
		})
	}
	if err := integrityBase().Validate(); err != nil {
		t.Errorf("valid integrity config rejected: %v", err)
	}
}

// conserve asserts the session conservation law: every offered message
// is accounted for exactly once.
func conserve(t *testing.T, stats *SessionStats) {
	t.Helper()
	got := stats.Delivered + stats.Dropped + stats.CorruptedDropped + stats.DeadlineMissed + stats.Integrity.FinalBacklog
	if got != stats.Offered {
		t.Errorf("conservation broken: Offered %d != Delivered %d + Dropped %d + CorruptedDropped %d + DeadlineMissed %d + FinalBacklog %d",
			stats.Offered, stats.Delivered, stats.Dropped, stats.CorruptedDropped, stats.DeadlineMissed, stats.Integrity.FinalBacklog)
	}
	missed := 0
	for lat, c := range stats.MissedLatencyHistogram {
		missed += c
		if stats.LatencyHistogram[lat] != 0 && c == 0 {
			t.Errorf("missed histogram holds empty bucket at %d", lat)
		}
	}
	if missed != stats.DeadlineMissed {
		t.Errorf("missed histogram sums to %d, want DeadlineMissed %d", missed, stats.DeadlineMissed)
	}
	first, retried := 0, 0
	for _, c := range stats.FirstTryLatencyHistogram {
		first += c
	}
	for _, c := range stats.RetriedLatencyHistogram {
		retried += c
	}
	if first+retried != stats.Delivered || retried != stats.RetriedDelivered {
		t.Errorf("latency split broken: first %d + retried %d vs Delivered %d (RetriedDelivered %d)",
			first, retried, stats.Delivered, stats.RetriedDelivered)
	}
	for lat, c := range stats.LatencyHistogram {
		if stats.FirstTryLatencyHistogram[lat]+stats.RetriedLatencyHistogram[lat] != c {
			t.Errorf("latency %d: split %d+%d != combined %d", lat,
				stats.FirstTryLatencyHistogram[lat], stats.RetriedLatencyHistogram[lat], c)
		}
	}
}

func TestIntegrityCleanSession(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := integrityBase()
	stats, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ist := stats.Integrity
	if ist == nil {
		t.Fatal("no integrity stats")
	}
	conserve(t, stats)
	if stats.Delivered == 0 || stats.Offered == 0 {
		t.Fatalf("nothing flowed: %+v", stats)
	}
	if ist.CorruptedDetected != 0 || ist.CorruptedDelivered != 0 || ist.Erasures != 0 {
		t.Errorf("clean wires reported corruption: %+v", ist)
	}
	if stats.CorruptedDropped != 0 {
		t.Errorf("clean wires dropped %d frames as corrupted", stats.CorruptedDropped)
	}
	if ist.FramesSent < stats.Delivered {
		t.Errorf("FramesSent %d < Delivered %d", ist.FramesSent, stats.Delivered)
	}
}

// Conservation must hold across corruption regimes, windows, and
// budgets — the property test the ISSUE pins under -race.
func TestIntegrityConservationProperty(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		seed   int64
		ber    float64
		window int
		budget int
		crc    link.CRC
	}{
		{"clean stop-and-wait", 1, 0, 1, 0, link.CRC8},
		{"light noise", 2, 1e-3, 4, 0, link.CRC16},
		{"heavy noise tiny budget", 3, 0.05, 8, 1, link.CRC16},
		{"crc-none heavy noise", 4, 0.05, 4, 2, link.CRCNone},
		{"saturating noise", 5, 0.3, 2, 3, link.CRC8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plane := link.NewCorruptionPlane(tc.seed)
			if tc.ber > 0 {
				if err := plane.Add(link.WireFault{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: tc.ber}); err != nil {
					t.Fatal(err)
				}
			}
			cfg := integrityBase()
			cfg.Seed = tc.seed
			cfg.Rounds = 120
			cfg.Integrity = &IntegrityConfig{
				CRC:            tc.crc,
				Window:         tc.window,
				MaxRetransmits: tc.budget,
				Corruption:     plane,
			}
			stats, err := RunSession(sw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			conserve(t, stats)
		})
	}
}

// A noisy output wire with a real CRC: corruption is detected and
// retried, and no corrupted payload is ever delivered.
func TestIntegrityCorruptionRecovered(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	plane := link.NewCorruptionPlane(99)
	// The link bundle after the last chip stage = the board-level
	// output wires.
	outStage := len(sw.StageChips())
	if err := plane.Add(link.WireFault{Stage: outStage, Wire: link.AllWires, Mode: link.WireBitFlip, BER: 0.01}); err != nil {
		t.Fatal(err)
	}
	cfg := integrityBase()
	cfg.Rounds = 150
	cfg.Integrity.Corruption = plane
	// Keep the monitor from quarantining: this test watches pure ARQ.
	cfg.Integrity.Monitor.Threshold = 0.999
	stats, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ist := stats.Integrity
	conserve(t, stats)
	if ist.CorruptedDetected == 0 {
		t.Error("BER 1e-2 never tripped the CRC")
	}
	if ist.CorruptedDelivered != 0 {
		t.Errorf("%d corrupted payloads delivered through CRC16", ist.CorruptedDelivered)
	}
	if ist.Retransmits == 0 || stats.RetriedDelivered == 0 {
		t.Errorf("corruption recovered without retransmits? %+v", ist)
	}
	if stats.Delivered == 0 {
		t.Error("session starved")
	}
}

// CRCNone is the undetected-corruption baseline: the same noise that
// CRC16 catches sails through to the receiver.
func TestIntegrityCRCNoneBaseline(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	plane := link.NewCorruptionPlane(99)
	if err := plane.Add(link.WireFault{Stage: len(sw.StageChips()), Wire: link.AllWires, Mode: link.WireBitFlip, BER: 0.01}); err != nil {
		t.Fatal(err)
	}
	cfg := integrityBase()
	cfg.Rounds = 150
	cfg.Integrity.CRC = link.CRCNone
	cfg.Integrity.Corruption = plane
	cfg.Integrity.Monitor.Threshold = 0.999
	stats, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, stats)
	if stats.Integrity.CorruptedDelivered == 0 {
		t.Error("CRCNone never delivered corrupted payload under BER 1e-2")
	}
	if stats.Integrity.CorruptedDetected != 0 {
		t.Errorf("CRCNone detected %d corruptions", stats.Integrity.CorruptedDetected)
	}
}

// Erasures produce no nack — recovery must come from the RTO timer.
func TestIntegrityErasureTimeout(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	plane := link.NewCorruptionPlane(5)
	if err := plane.Add(link.WireFault{Stage: len(sw.StageChips()), Wire: 0, Mode: link.WireErasure, From: 0, Until: 40}); err != nil {
		t.Fatal(err)
	}
	cfg := integrityBase()
	cfg.Rounds = 120
	cfg.Load = 0.9
	cfg.Integrity.Corruption = plane
	cfg.Integrity.Monitor.Threshold = 0.999
	stats, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, stats)
	ist := stats.Integrity
	if ist.Erasures == 0 || ist.Timeouts == 0 {
		t.Errorf("erasure fault never exercised the RTO path: %+v", ist)
	}
}

// A totally-corrupting input wire is quarantined by the local monitor
// within bounded rounds: once MinFrames receptions have charged the
// link, the next escalation pass takes it out of service.
func TestIntegrityInputQuarantine(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	plane := link.NewCorruptionPlane(21)
	if err := plane.Add(link.WireFault{Stage: 0, Wire: 3, Mode: link.WireBitFlip, BER: 0.5}); err != nil {
		t.Fatal(err)
	}
	cfg := integrityBase()
	cfg.Rounds = 100
	cfg.Load = 0.9
	cfg.Integrity.Corruption = plane
	stats, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, stats)
	ist := stats.Integrity
	if len(ist.InputsQuarantined) != 1 || ist.InputsQuarantined[0] != 3 {
		t.Fatalf("inputs quarantined = %v, want [3]", ist.InputsQuarantined)
	}
	h := ist.Links[link.LinkAddr{Stage: 0, Wire: 3}]
	if !h.Escalated {
		t.Error("corrupting input link not escalated in the health map")
	}
	// Bounded detection: the monitor needs MinFrames receptions to
	// convict; with BER 0.5 over 17 payload+overhead bytes nearly every
	// frame is corrupt, so conviction lands within a small multiple of
	// MinFrames receptions on that wire.
	if h.Frames > 4*8 {
		t.Errorf("quarantine took %d receptions (want ≤ %d)", h.Frames, 4*8)
	}
	if stats.Refused == 0 {
		t.Error("quarantined input refused no arrivals")
	}
}

// With escalation disabled and a hopeless wire, the retransmit budget
// gives up explicitly: CorruptedDropped accounts the loss, Dropped
// stays clean-loss only.
func TestIntegrityGiveUpAccounting(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	plane := link.NewCorruptionPlane(13)
	if err := plane.Add(link.WireFault{Stage: len(sw.StageChips()), Wire: link.AllWires, Mode: link.WireBitFlip, BER: 0.5}); err != nil {
		t.Fatal(err)
	}
	cfg := integrityBase()
	cfg.Rounds = 120
	cfg.Integrity.Corruption = plane
	cfg.Integrity.MaxRetransmits = 2
	cfg.Integrity.Monitor.Threshold = 0.999 // never quarantine
	stats, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, stats)
	if stats.CorruptedDropped == 0 {
		t.Errorf("hopeless wires with budget 2 never gave up: %+v", stats)
	}
	// Clean congestion losses may exist, but under BER 0.5 the
	// corruption bucket must dominate — a frame only lands in Dropped
	// when every one of its failures was congestion.
	if stats.Dropped >= stats.CorruptedDropped {
		t.Errorf("Dropped %d ≥ CorruptedDropped %d under BER 0.5", stats.Dropped, stats.CorruptedDropped)
	}
}

// Stalls that hold acks past the RTO force spurious retransmits; the
// receiver must suppress the duplicates and still ack so the window
// slides.
func TestIntegrityDuplicateSuppression(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	stall := timing.NewPlane(7)
	if err := stall.Add(timing.Fault{Stage: 0, Wire: link.AllWires, Mode: timing.Jitter, Prob: 0.5, MaxDelay: 8}); err != nil {
		t.Fatal(err)
	}
	cfg := integrityBase()
	cfg.Rounds = 120
	cfg.Load = 0.9
	cfg.Integrity.Timing = stall
	stats, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, stats)
	ist := stats.Integrity
	if ist.DuplicatesSuppressed == 0 {
		t.Errorf("stalls up to 8 rounds past the RTO produced no duplicates: %+v", ist)
	}
	// Duplicates must not double-deliver.
	if stats.Delivered > stats.Offered {
		t.Errorf("Delivered %d > Offered %d", stats.Delivered, stats.Offered)
	}
}

// A corruption the checksum misses can rewrite a copy's sequence
// number, so the receiver's duplicate window does not know the frame's
// later clean copy; a stall that holds the ack past the RTO sends that
// copy. The frame is still booked Delivered once, and the books
// balance.
func TestIntegrityDeliversFrameOnce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		sw, err := core.NewRevsortSwitch(64, 48)
		if err != nil {
			t.Fatal(err)
		}
		noise := link.NewCorruptionPlane(seed)
		if err := noise.Add(link.WireFault{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: 1e-2}); err != nil {
			t.Fatal(err)
		}
		stall := timing.NewPlane(seed)
		if err := stall.Add(timing.Fault{Stage: 0, Wire: link.AllWires, Mode: timing.Jitter, Prob: 0.5, MaxDelay: 8}); err != nil {
			t.Fatal(err)
		}
		cfg := SessionConfig{
			Policy: Resend, Load: 0.5, Rounds: 40, PayloadBits: 16, AckDelay: 2, Seed: seed,
			Integrity: &IntegrityConfig{CRC: link.CRCNone, Window: 4, Corruption: noise, Timing: stall},
		}
		stats, err := RunSession(sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		conserve(t, stats)
	}
}

// A deeper window must not starve vs stop-and-wait under the same ack
// round trip — the point of sliding-window ARQ.
func TestIntegrityWindowThroughput(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	run := func(window int) *SessionStats {
		cfg := integrityBase()
		cfg.Rounds = 100
		cfg.Load = 0.9
		cfg.AckDelay = 3
		cfg.Integrity.Window = window
		stats, err := RunSession(sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		conserve(t, stats)
		return stats
	}
	saw := run(1)
	deep := run(8)
	if deep.Delivered <= saw.Delivered {
		t.Errorf("window 8 delivered %d ≤ stop-and-wait %d under AckDelay 3",
			deep.Delivered, saw.Delivered)
	}
}

// TestIntegritySessionAllocs pins the ARQ engine's allocations on
// perfbench's session-arq shape at seed 1: a Columnsort n=256 → 128
// (β 0.75) at load 0.5, 32-bit payloads, BER 1e-3 on every link,
// CRC-16, window 4, 20 rounds. The session streams every round through
// one Runner, reuses its received-bits buffer, in-flight table and offer
// list, and keeps each frame's pending verdict on the frame; it then
// makes 14,012 allocations on Go 1.24, against 22,049 when each buffer
// was made afresh and 14,842 with the verdicts in a round-keyed map.
// The bound leaves room for a toolchain whose maps grow in other steps.
func TestIntegritySessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts vary")
	}
	sw, err := core.NewColumnsortSwitchBeta(256, 128, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	const payload, ber, seed = 32, 1e-3, 1
	plane := link.NewCorruptionPlane(seed)
	if err := plane.Add(link.WireFault{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: ber}); err != nil {
		t.Fatal(err)
	}
	// concsim's monitor calibration, as perfbench sets it.
	frameBits := payload + link.FrameOverhead(link.CRC16)
	floor := 1 - math.Pow(1-ber, float64(frameBits*(len(sw.StageChips())+1)))
	cfg := SessionConfig{
		Policy: Resend, Load: 0.5, Rounds: 20, PayloadBits: payload, AckDelay: 2, Seed: seed,
		Integrity: &IntegrityConfig{
			CRC: link.CRC16, Window: 4, Corruption: plane,
			Monitor: link.MonitorConfig{Threshold: min(0.95, 0.3+4*floor), MinFrames: 32},
		},
	}
	run := func() {
		if _, err := RunSession(sw, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if a := testing.AllocsPerRun(5, run); a > 16000 {
		t.Errorf("session-arq session allocated %v times, want at most 16,000", a)
	}
}

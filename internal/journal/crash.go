package journal

import (
	"fmt"
	"math"
	"math/rand"

	"concentrators/internal/seedrand"
	"concentrators/internal/window"
)

// Phase is the point inside a round at which a crash fault kills the
// process. The three phases pin the three distinct recovery proofs:
//
//	RoundStart  — dies before the round executes: the journal is a
//	              clean prefix through round−1; recovery re-executes
//	              the round from the restored stream position.
//	MidDispatch — dies while appending the round's record: the store
//	              holds a torn fragment; recovery discards it (CRC)
//	              and re-executes the round. This is the torn-write
//	              case the framing exists for.
//	PreAck      — dies after the record is durable but before the
//	              in-memory state advances (equivalently, before the
//	              client is acked): recovery must apply the record
//	              exactly once and must NOT re-execute the round.
type Phase int

// The crash phases.
const (
	PhaseRoundStart Phase = iota
	PhaseMidDispatch
	PhasePreAck
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseRoundStart:
		return "round-start"
	case PhaseMidDispatch:
		return "mid-dispatch"
	case PhasePreAck:
		return "pre-ack"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// CrashFault is one scheduled process kill, deterministic in (round,
// phase) exactly as the other planes' faults are deterministic in
// their coordinates.
type CrashFault struct {
	// Round is the session round the kill fires in.
	Round int
	// Phase is where inside the round the process dies.
	Phase Phase
	// TornFrac is the fraction of the in-flight record's bytes that
	// reach the store before a PhaseMidDispatch death (the torn
	// write). Must be in [0, 1) — a full write is PhasePreAck, not a
	// tear — and not NaN. Ignored by the other phases.
	TornFrac float64
}

// String renders the fault.
func (f CrashFault) String() string {
	if f.Phase == PhaseMidDispatch {
		return fmt.Sprintf("crash@%d %s torn=%.2f", f.Round, f.Phase, f.TornFrac)
	}
	return fmt.Sprintf("crash@%d %s", f.Round, f.Phase)
}

// Validate rejects malformed crash faults.
func (f CrashFault) Validate() error {
	switch {
	case f.Round < 0:
		return fmt.Errorf("journal: negative crash round in %v", f)
	case f.Phase < PhaseRoundStart || f.Phase > PhasePreAck:
		return fmt.Errorf("journal: unknown crash phase in crash@%d Phase(%d)", f.Round, int(f.Phase))
	case math.IsNaN(f.TornFrac) || f.TornFrac < 0 || f.TornFrac >= 1:
		return fmt.Errorf("journal: torn-write fraction %v outside [0,1) in %v", f.TornFrac, f)
	}
	return nil
}

// Plane is the seeded set of crash faults. A run fires each fault at
// most once, keeping the fired set itself: the re-executed round of the
// recovered incarnation must not die at the same coordinate again, or
// no schedule would ever terminate. (A real deployment's "crash loop"
// is exactly a fault that does re-fire; the plane models independent
// failures.) A run leaves the plane as it found it, so one plane drives
// any number of runs alike.
type Plane = window.Plane[CrashFault]

// NewCrashPlane returns an empty crash plane with the given seed.
func NewCrashPlane(seed int64) *Plane {
	p := window.NewPlane[CrashFault](seed)
	return &p
}

// GenerateCrashSchedule derives a deterministic crash schedule: kills
// spread across (2, rounds) with rotating phases — round-start,
// mid-dispatch (with a seeded torn fraction), pre-ack — so every
// recovery path is exercised. Deterministic in (seed, rounds, kills).
func GenerateCrashSchedule(seed int64, rounds, kills int) *Plane {
	p := NewCrashPlane(seed)
	if kills <= 0 || rounds < 3 {
		return p
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6A09E667F3BCC908))
	// One kill per slot of the [2, rounds) span, jittered within its
	// slot, so exactly `kills` faults always fit the round range.
	span := rounds - 2
	for i := 0; i < kills; i++ {
		f := CrashFault{Round: seedrand.SlotRound(rng, 2, span, i, kills), Phase: Phase(i % 3)}
		if f.Phase == PhaseMidDispatch {
			// Somewhere strictly inside the frame: at least the magic
			// byte lands, the checksum never does.
			f.TornFrac = 0.05 + 0.9*rng.Float64()
		}
		// Add cannot fail: rounds and fractions are in range.
		_ = p.Add(f)
	}
	return p
}

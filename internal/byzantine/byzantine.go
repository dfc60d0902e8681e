// Package byzantine is the seventh seeded fault plane: replicas that
// *lie*. Every earlier plane models components that fail-stop (chip,
// crash), slow down (timing), corrupt detectably (wire), overload
// (surge), or go dark (partition); this one models a board or its
// controller actively misbehaving — misrouting frames while acking
// them as correct, replaying stale frames under live sequence
// numbers, fabricating acks for frames never delivered, and
// equivocating about its own health.
//
// Like its siblings, the plane is deterministic: whether an actor
// misbehaves in a round — and exactly how many frames it touches — is
// a pure function of (seed, round, actor), never of call order, so a
// forged-delivery incident found in CI replays bit-for-bit from its
// seed. Every behavior fault carries a bounded [From, Until) window
// (window.CheckBounded): the harness's job is to prove containment
// and conviction, not to model a permanently captured board.
//
// The plane itself holds no checksum key. That asymmetry is the whole
// threat model: a liar can copy the public header fields of frames it
// has seen (epochs, sequence numbers) and re-emit genuine stale tags
// verbatim, but it cannot mint a fresh tag that verifies — ForgeSum
// is the deterministic garbage a keyless forger produces. See
// provenance.go for the verified side of the contract.
package byzantine

import (
	"fmt"

	"concentrators/internal/seedrand"
	"concentrators/internal/window"
)

// Mode selects the behavior of one fault.
type Mode int

// The modelled misbehaviors.
const (
	// Misroute scrambles the input→output association the actor *acks*
	// for frames it physically delivered: the frame lands somewhere,
	// but the claim says somewhere else, and the ack reads as correct.
	// Provenance cannot catch it (payload and tag are genuine); the
	// pool's witness cross-examination exists for exactly this.
	Misroute Mode = iota
	// Replay re-emits recently delivered frames — genuine payloads
	// under their original, still-valid tags — alongside the round's
	// real traffic. The receiving edge's sliding dedup window books
	// them Duplicated.
	Replay
	// FabricatedAck invents acks for frames never delivered. The actor
	// copies plausible public header fields but has no checksum key,
	// so the tag's keyed sum is ForgeSum garbage and the receiving
	// edge books the claim Forged.
	FabricatedAck
	// Equivocation forks the actor's health report: healthy and
	// fully-delivering to the arbiter, degraded to its peers. The
	// arbiter's cross-check against ledger evidence convicts it.
	Equivocation
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Misroute:
		return "misroute"
	case Replay:
		return "replay"
	case FabricatedAck:
		return "fabricated-ack"
	case Equivocation:
		return "equivocation"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Fault is one scheduled misbehavior window on the plane.
type Fault struct {
	// Mode is the misbehavior.
	Mode Mode
	// Replica is the lying actor.
	Replica int
	// Count is the per-round intensity: frames misrouted, replayed, or
	// fabricated in each active round (0 means 1). Equivocation
	// ignores it — a fork is a fork.
	Count int
	// From and Until bound the rounds the misbehavior is live: active
	// for From ≤ round < Until. Every behavior fault needs the bounded
	// window — the harness proves conviction, not permanent capture.
	From, Until int
}

// String renders the fault.
func (f Fault) String() string {
	w := fmt.Sprintf("rounds [%d,%d)", f.From, f.Until)
	if f.Mode == Equivocation {
		return fmt.Sprintf("%s by replica %d %s", f.Mode, f.Replica, w)
	}
	return fmt.Sprintf("%s ×%d by replica %d %s", f.Mode, f.count(), f.Replica, w)
}

// count is the fault's effective per-round intensity.
func (f Fault) count() int {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

// Validate rejects malformed behavior faults — in particular any fault
// without a bounded window (window.CheckBounded).
func (f Fault) Validate() error {
	if err := window.CheckBounded(f.From, f.Until, "fault"); err != nil {
		return fmt.Errorf("byzantine: %v in %v", err, f)
	}
	switch {
	case f.Replica < 0:
		return fmt.Errorf("byzantine: fault needs a replica actor ≥ 0 in %v", f)
	case f.Count < 0:
		return fmt.Errorf("byzantine: negative intensity %d in %v", f.Count, f)
	case f.Mode < Misroute || f.Mode > Equivocation:
		return fmt.Errorf("byzantine: unknown mode in %v", f)
	}
	return nil
}

// active reports whether the fault is live in the given round.
func (f Fault) active(round int) bool {
	return window.Span{From: f.From, Until: f.Until}.Active(round)
}

// Plane is a seeded set of behavior faults. Faults may overlap; the
// per-round intensities of overlapping faults sum. The zero *Plane
// (nil) means every actor is honest.
type Plane struct {
	window.Plane[Fault]
}

// NewPlane returns an empty behavior plane with the given seed.
func NewPlane(seed int64) *Plane {
	return &Plane{window.NewPlane[Fault](seed)}
}

// intensity sums the live per-round intensity of the given mode for
// one actor — a pure function of the plane's fault set and the round.
func (p *Plane) intensity(round, replica int, m Mode) int {
	if p == nil {
		return 0
	}
	total := 0
	for _, f := range p.Faults() {
		if f.Mode == m && f.Replica == replica && f.active(round) {
			total += f.count()
		}
	}
	return total
}

// Misroutes returns how many delivered frames the actor mis-acks this
// round (0 when honest).
func (p *Plane) Misroutes(round, replica int) int { return p.intensity(round, replica, Misroute) }

// Replays returns how many stale frames the actor re-emits this round.
func (p *Plane) Replays(round, replica int) int { return p.intensity(round, replica, Replay) }

// Fabrications returns how many acks the actor invents this round.
func (p *Plane) Fabrications(round, replica int) int {
	return p.intensity(round, replica, FabricatedAck)
}

// Equivocating reports whether the actor forks its health report this
// round.
func (p *Plane) Equivocating(round, replica int) bool {
	return p.intensity(round, replica, Equivocation) > 0
}

// Pick draws the deterministic index of the actor's draw-th victim
// among n candidates this round — which frame to misroute, which
// stale frame to replay. Pure in (seed, round, replica, draw).
func (p *Plane) Pick(round, replica, draw, n int) int {
	if n <= 0 {
		return 0
	}
	h := seedrand.Mix64(uint64(p.Seed()) ^
		seedrand.Mix64(uint64(round)<<24|uint64(uint16(replica))<<8|uint64(uint8(draw))))
	return int(h % uint64(n))
}

// ForgeSum is the deterministic garbage checksum a keyless liar mints
// for its draw-th fabricated ack of the round. It collides with the
// keyed sum only by 2⁻⁶⁴ accident — the forger does not hold the key,
// so it cannot do better than noise.
func (p *Plane) ForgeSum(round, replica, draw int) uint64 {
	return seedrand.Mix64(uint64(p.Seed()) ^ 0x452821E638D01377 ^
		seedrand.Mix64(uint64(round)<<24|uint64(uint16(replica))<<8|uint64(uint8(draw))))
}

// Inflation draws the deterministic over-report an equivocator adds to
// its arbiter-side health claim this round: at least 1 extra frame.
func (p *Plane) Inflation(round, replica int) int {
	h := seedrand.Mix64(uint64(p.Seed()) ^ 0x13198A2E03707344 ^
		seedrand.Mix64(uint64(round)<<16|uint64(uint16(replica))))
	return 1 + int(h%3)
}

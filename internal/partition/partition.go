// Package partition is the control-plane partition fault plane: seeded,
// bounded-window cuts of the *visibility* between the pool's arbiter and
// its replica boards. A cut edge drops health observations, probe
// results, lease grants, and delivery acks — the control traffic — while
// the data plane keeps routing: a partitioned board still serves the
// rounds it believes it owns, which is exactly the split-brain hazard
// the pool's lease-fenced failover exists to contain.
//
// Like the chip, wire, timing, surge, and crash planes before it, the
// partition plane is deterministic: whether an edge is cut in a round is
// a pure function of (seed, round, edge), never of call order, so a
// split-brain found in CI replays bit-for-bit from its seed. Unlike the
// other planes, every partition fault must carry a bounded [From, Until)
// window — a partition that never heals would freeze quorum decisions
// forever, and the harness's job is to prove the pool survives the heal,
// not to model permanent amputation (that is what Kill is for).
package partition

import (
	"fmt"
	"math"

	"concentrators/internal/seedrand"
	"concentrators/internal/window"
)

// Mode selects the shape of one partition fault.
type Mode int

// The modelled partition shapes.
const (
	// SymmetricCut severs both control directions between the arbiter
	// and one replica: the arbiter hears nothing from the board and the
	// board receives no grants — the classic two-sided network split.
	SymmetricCut Mode = iota
	// OneWay severs exactly one direction (Dir) between the arbiter and
	// one replica — the asymmetric failure mode where, say, lease
	// renewals vanish while health acks still arrive, or vice versa.
	OneWay
	// Flapping cuts both directions of one replica's edge independently
	// per round with probability Prob — a renegotiating control link.
	// The per-round draw is deterministic in (seed, round, edge).
	Flapping
	// ArbiterIsolation severs the arbiter from every replica in both
	// directions: the minority-side-arbiter scenario, where quorum
	// gating must freeze membership decisions instead of flapping
	// breakers on a stale view. Targets AllReplicas.
	ArbiterIsolation
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case SymmetricCut:
		return "symmetric-cut"
	case OneWay:
		return "one-way"
	case Flapping:
		return "flapping"
	case ArbiterIsolation:
		return "arbiter-isolation"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Direction names one side of a control-plane edge.
type Direction int

// The control-plane directions of one arbiter↔replica edge.
const (
	// ToReplica carries arbiter → replica control traffic: lease
	// grants, renewals, and revocations.
	ToReplica Direction = iota
	// FromReplica carries replica → arbiter control traffic: health
	// observations, probe verdicts, and delivery acks.
	FromReplica
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case ToReplica:
		return "to-replica"
	case FromReplica:
		return "from-replica"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// AllReplicas as a Fault.Replica targets every arbiter↔replica edge
// (ArbiterIsolation only).
const AllReplicas = -1

// Fault is one cut on the partition plane.
type Fault struct {
	// Mode is the partition shape.
	Mode Mode
	// Replica is the replica whose arbiter edge is cut; AllReplicas
	// (ArbiterIsolation only) cuts every edge.
	Replica int
	// Dir selects the severed direction for OneWay faults.
	Dir Direction
	// Prob is the per-round cut probability for Flapping faults.
	Prob float64
	// From and Until bound the rounds the cut is live: active for
	// From ≤ round < Until. Every partition fault needs the bounded
	// window — a partition always heals.
	From, Until int
}

// String renders the fault.
func (f Fault) String() string {
	window := fmt.Sprintf("rounds [%d,%d)", f.From, f.Until)
	target := fmt.Sprintf("replica %d", f.Replica)
	switch f.Mode {
	case SymmetricCut:
		return fmt.Sprintf("symmetric cut of %s %s", target, window)
	case OneWay:
		return fmt.Sprintf("one-way cut of %s (%s) %s", target, f.Dir, window)
	case Flapping:
		return fmt.Sprintf("flapping cut of %s p=%.3g %s", target, f.Prob, window)
	case ArbiterIsolation:
		return fmt.Sprintf("arbiter isolation %s", window)
	default:
		return fmt.Sprintf("%s of %s %s", f.Mode, target, window)
	}
}

// Validate rejects malformed partition faults — in particular any fault
// without a bounded heal window (window.CheckBounded: a partition
// always heals).
func (f Fault) Validate() error {
	if err := window.CheckBounded(f.From, f.Until, "fault"); err != nil {
		return fmt.Errorf("partition: %v in %v", err, f)
	}
	switch f.Mode {
	case SymmetricCut, OneWay, Flapping:
		if f.Replica < 0 {
			return fmt.Errorf("partition: %s fault needs a replica target ≥ 0 in %v", f.Mode, f)
		}
	case ArbiterIsolation:
		if f.Replica != AllReplicas {
			return fmt.Errorf("partition: arbiter isolation targets AllReplicas, not replica %d, in %v", f.Replica, f)
		}
	default:
		return fmt.Errorf("partition: unknown mode in %v", f)
	}
	switch f.Mode {
	case OneWay:
		if f.Dir != ToReplica && f.Dir != FromReplica {
			return fmt.Errorf("partition: unknown direction in %v", f)
		}
	case Flapping:
		if math.IsNaN(f.Prob) || f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("partition: flapping probability %v outside (0,1] in %v", f.Prob, f)
		}
	}
	return nil
}

// active reports whether the fault is live in the given round.
func (f Fault) active(round int) bool {
	return window.Span{From: f.From, Until: f.Until}.Active(round)
}

// Plane is a seeded set of partition faults. Faults may overlap; an
// edge is cut when any live fault cuts it. The zero *Plane (nil) means
// every control edge is visible in both directions.
type Plane struct {
	window.Plane[Fault]
}

// NewPlane returns an empty partition plane with the given seed.
func NewPlane(seed int64) *Plane {
	return &Plane{window.NewPlane[Fault](seed)}
}

// flapDown draws the deterministic per-(round, edge) verdict for one
// flapping fault. The draw ignores direction: a flap takes the whole
// edge down, both ways, for the round.
func (p *Plane) flapDown(round, replica, idx int, prob float64) bool {
	h := seedrand.Mix64(uint64(p.Seed()) ^
		seedrand.Mix64(uint64(round)<<24|uint64(uint16(replica))<<8|uint64(uint8(idx))))
	rng := seedrand.NewStream(int64(h))
	return rng.Float64() < prob
}

// Visible reports whether the control edge between the arbiter and the
// given replica passes traffic in the given direction this round. A nil
// plane — and any round outside every fault window — is fully visible.
// The verdict is a pure function of (seed, round, replica, dir).
func (p *Plane) Visible(round, replica int, dir Direction) bool {
	if p == nil {
		return true
	}
	for i, f := range p.Faults() {
		if !f.active(round) {
			continue
		}
		switch f.Mode {
		case ArbiterIsolation:
			return false
		case SymmetricCut:
			if f.Replica == replica {
				return false
			}
		case OneWay:
			if f.Replica == replica && f.Dir == dir {
				return false
			}
		case Flapping:
			if f.Replica == replica && p.flapDown(round, replica, i, f.Prob) {
				return false
			}
		}
	}
	return true
}

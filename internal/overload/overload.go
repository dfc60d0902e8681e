// Package overload closes the load failure plane: every fault plane
// built so far (chips, replicas, wires, timing) assumes the offered
// load is well behaved, yet the paper's guarantee is load-conditional —
// an (n, m, α) partial concentrator delivers all k valid inputs only
// while k ≤ αm. This package supplies the machinery that keeps goodput
// monotone when k is NOT well behaved:
//
//   - Plane: a seeded surge fault plane mirroring timing.Plane /
//     link.CorruptionPlane — bounded-window load faults (step surge,
//     ramp, flash-crowd spike, sustained oversubscription) that
//     multiply the offered load per round, deterministic in
//     (seed, round);
//   - AIMD: a closed-loop admission controller over the admitted
//     fraction of the live ⌊α′m′⌋ threshold, driven by per-round
//     backlog and deadline-miss congestion signals;
//   - CoDel: a controlled-delay sojourn rule that drains a retry or
//     buffer backlog by dropping from the queue head once backlog age
//     has exceeded a target for a full interval, instead of buffering
//     without bound;
//   - RetryBudget: a token-bucket retry budget with jittered
//     exponential client backoff, so shed messages cannot synchronize
//     into a metastable retry storm;
//   - Brownout: a sustained-overload state machine that deliberately
//     steps the advertised contract down (lower effective α: admit
//     less, deliver predictably) and back up through a probation
//     window, with every transition booked.
//
// Each state machine keeps its mutable state in one exported …Snapshot
// struct, which Snapshot returns and Restore assigns whole, so a
// checkpoint cannot miss a field. The journal plane serializes these
// structs (gob) inside its records; a recovered incarnation rebuilds
// each machine from its config, which is deterministic and never
// journaled, and restores the snapshot on top.
package overload

import (
	"fmt"
	"math"
)

// Config tunes the closed-loop controller a pool installs. The AIMD
// and Brownout control laws are fixed constants.
type Config struct {
	// BacklogFactor declares congestion when the client-reported
	// backlog exceeds BacklogFactor × the live threshold. 0 means the
	// default (2).
	BacklogFactor float64
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.BacklogFactor == 0 {
		c.BacklogFactor = 2
	}
	return c
}

// Validate rejects malformed controller configurations.
func (c Config) Validate() error {
	d := c.WithDefaults()
	if math.IsNaN(d.BacklogFactor) || d.BacklogFactor < 1 {
		return fmt.Errorf("overload: backlog factor %v must be ≥ 1", c.BacklogFactor)
	}
	return nil
}

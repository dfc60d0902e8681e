package overload

import (
	"fmt"
	"math"
)

// CoDelConfig tunes the controlled-delay backlog drain. Sojourn time
// is measured in rounds since a message's first offer.
type CoDelConfig struct {
	// Target is the acceptable standing sojourn in rounds. 0 means the
	// default (2).
	Target int
	// Interval is how long the sojourn must stay above Target before
	// the drain opens. Must be strictly greater than Target (a drain
	// that opens before one target-worth of queueing has been observed
	// is just a tail drop). 0 means the default (8).
	Interval int
}

func (c CoDelConfig) withDefaults() CoDelConfig {
	if c.Target == 0 {
		c.Target = 2
	}
	if c.Interval == 0 {
		c.Interval = 8
	}
	return c
}

// Validate rejects degenerate drain parameters — in particular a
// target at or above the interval.
func (c CoDelConfig) Validate() error {
	d := c.withDefaults()
	switch {
	case d.Target < 1:
		return fmt.Errorf("overload: CoDel target %d must be ≥ 1 round", c.Target)
	case d.Interval <= d.Target:
		return fmt.Errorf("overload: CoDel target %d ≥ interval %d (the drain needs Target < Interval)", d.Target, d.Interval)
	}
	return nil
}

// CoDel implements the controlled-delay drop-from-queue rule over a
// round-based backlog: once the head-of-queue sojourn has exceeded
// Target continuously for Interval rounds, the drain opens and sheds
// queue heads — at an interval/√count cadence that accelerates while
// the overload persists — until the sojourn falls back under Target,
// which closes the episode. Dropping from the queue head (the oldest
// message) is deliberate: it is the message most likely past its
// deadline anyway, and shedding it frees capacity for young traffic.
type CoDel struct {
	cfg   CoDelConfig
	state CoDelSnapshot
}

// CoDelSnapshot is a CoDel drain's whole mutable state.
type CoDelSnapshot struct {
	// FirstAbove is the round the sojourn first exceeded Target (−1:
	// not above); DropNext the next scheduled drop round while
	// Draining.
	FirstAbove, DropNext int
	Draining             bool
	// Count is the drops this episode, which drive the √count
	// acceleration.
	Count, Episodes, Dropped int
}

// NewCoDel builds the drain.
func NewCoDel(cfg CoDelConfig) (*CoDel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &CoDel{cfg: cfg.withDefaults(), state: CoDelSnapshot{FirstAbove: -1}}, nil
}

// Snapshot returns the drain's state.
func (c *CoDel) Snapshot() CoDelSnapshot { return c.state }

// Restore replaces the drain's state with a snapshot.
func (c *CoDel) Restore(s CoDelSnapshot) { c.state = s }

// spacing is the interval/√count control law, floored at one round.
func (c *CoDel) spacing() int {
	s := int(math.Round(float64(c.cfg.Interval) / math.Sqrt(float64(c.state.Count))))
	if s < 1 {
		s = 1
	}
	return s
}

// Drop reports whether the current queue head (with the given sojourn
// in rounds, observed at the given round) should be shed. Callers loop
// — re-measuring the new head's sojourn after each shed — until Drop
// returns false; the √count acceleration lets a persistent episode
// drain multiple heads per round.
func (c *CoDel) Drop(round, sojourn int) bool {
	s := &c.state
	if sojourn < c.cfg.Target {
		s.FirstAbove = -1
		s.Draining = false
		return false
	}
	if s.FirstAbove < 0 {
		// First observation above target: arm the interval timer.
		s.FirstAbove = round
		return false
	}
	if !s.Draining {
		if round-s.FirstAbove < c.cfg.Interval {
			return false
		}
		s.Draining = true
		s.Episodes++
		s.Count = 1
		s.Dropped++
		s.DropNext = round + c.spacing()
		return true
	}
	if round >= s.DropNext {
		s.Count++
		s.Dropped++
		s.DropNext = round + c.spacing()
		return true
	}
	return false
}

// Episodes returns how many drain episodes have opened.
func (c *CoDel) Episodes() int { return c.state.Episodes }

// Dropped returns the total queue heads shed by the drain.
func (c *CoDel) Dropped() int { return c.state.Dropped }

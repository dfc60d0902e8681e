package pool

import (
	"fmt"
	"math"
	"math/rand"

	"concentrators/internal/overload"
	"concentrators/internal/switchsim"
)

// NoteBacklog reports the client-side retry-queue depth to the pool's
// closed-loop admission controller. The depth feeds the congestion
// signal (backlog above BacklogFactor × live threshold counts as a
// congested round) that drives the AIMD fraction and the brownout
// state machine. Negative depths clamp to zero. A no-op without
// Config.Overload.
func (p *Pool) NoteBacklog(depth int) {
	if depth < 0 {
		depth = 0
	}
	p.mu.Lock()
	p.clientBacklog = depth
	p.mu.Unlock()
}

// OverloadSessionConfig drives a closed-loop client session against a
// pool. Each input wire carries an unbounded FIFO client queue: fresh
// arrivals append at a (surge-multiplied) Bernoulli load, the head of
// each queue offers once eligible, shed heads re-offer under a retry
// budget with jittered exponential backoff (or, open loop, exactly at
// the pool's advertised RetryAfter), and a CoDel sojourn rule drains
// the stalest heads before each round's offers.
type OverloadSessionConfig struct {
	// Rounds is the session length. Must be ≥ 1.
	Rounds int
	// Load is the per-input fresh-arrival probability per round,
	// before surge multiplication. Must be in [0, 1].
	Load float64
	// PayloadBits is the payload length per message. Must be ≥ 1.
	PayloadBits int
	// Seed seeds the session's arrival and jitter randomness.
	Seed int64
	// Deadline is the client-side freshness SLO in rounds: a message
	// delivered more than Deadline rounds after it entered its queue
	// books DeadlineMissed instead of Delivered (the delivery wasted
	// an admitted slot — stale work is not goodput). 0 disables.
	Deadline int
	// Surge, when non-nil, multiplies Load per round (nil = identity).
	Surge *overload.Plane
	// Retry, when non-nil, closes the client loop: shed and lost heads
	// re-offer only while the per-session retry budget allows, with
	// full-jitter exponential backoff; a denied retry fails fast
	// (Shed). Nil is the open loop — every shed head re-offers exactly
	// when the pool's advertised RetryAfter elapses, the synchronized
	// retry storm that drives metastable collapse.
	Retry *overload.RetryConfig
	// CoDel, when non-nil, drains the client queues with the CoDel
	// sojourn rule (stalest head first) before each round's offers.
	CoDel *overload.CoDelConfig
}

// Validate rejects ill-formed configurations.
func (c OverloadSessionConfig) Validate() error {
	switch {
	case c.Rounds < 1:
		return fmt.Errorf("pool: overload session rounds %d < 1", c.Rounds)
	case math.IsNaN(c.Load) || c.Load < 0 || c.Load > 1:
		return fmt.Errorf("pool: overload session load %v outside [0,1]", c.Load)
	case c.PayloadBits < 1:
		return fmt.Errorf("pool: overload session payload %d bits < 1", c.PayloadBits)
	case c.Deadline < 0:
		return fmt.Errorf("pool: negative overload session deadline %d", c.Deadline)
	}
	if c.Retry != nil {
		if err := c.Retry.Validate(); err != nil {
			return err
		}
	}
	if c.CoDel != nil {
		if err := c.CoDel.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// OverloadSessionStats is the ledger of one overload session. Every
// fresh arrival ends in exactly one bucket:
//
//	Offered = Delivered + DeadlineMissed + Shed + FinalBacklog
//
// Retries (re-offers of already-queued messages) sit outside the law:
// a retry is the same message offered again.
type OverloadSessionStats struct {
	// Offered counts fresh arrivals that entered a client queue.
	Offered int
	// Delivered counts messages delivered within the freshness SLO.
	Delivered int
	// DeadlineMissed counts messages delivered too late to be goodput.
	DeadlineMissed int
	// Shed counts messages abandoned client-side: retry-budget
	// denials and CoDel sojourn drops.
	Shed int
	// Retries counts re-offers of already-queued messages.
	Retries int
	// FinalBacklog is the total client-queue depth at session end.
	FinalBacklog int
	// MaxBacklog is the deepest the total client backlog ever got.
	MaxBacklog int
	// GoodputPerRound[r] is the number of on-time deliveries in round r.
	GoodputPerRound []int
	// Pool is the pool's own ledger at session end.
	Pool Stats
}

// overloadPending is one queued client message.
type overloadPending struct {
	firstRound int
	eligible   int // earliest round the head may (re-)offer
	offers     int // times offered so far
}

// RunOverloadSession drives cfg.Rounds of client traffic through the
// pool. Per round: the CoDel rule drains the stalest queue heads, the
// total backlog is reported to the pool's congestion loop, fresh
// arrivals append at the surge-multiplied load, every eligible head
// offers, and the pool's verdict is booked — deliveries against the
// freshness SLO, shed heads re-scheduled (open loop: exactly at the
// advertised RetryAfter; closed loop: budget-gated with full jitter,
// failing fast when the budget is dry), heads lost to a contract
// violation re-entering by the same rule.
func RunOverloadSession(p *Pool, cfg OverloadSessionConfig) (*OverloadSessionStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := p.Inputs()
	stats := &OverloadSessionStats{GoodputPerRound: make([]int, cfg.Rounds)}

	var budget *overload.RetryBudget
	if cfg.Retry != nil {
		b, err := overload.NewRetryBudget(*cfg.Retry)
		if err != nil {
			return nil, err
		}
		budget = b
	}
	var codel *overload.CoDel
	if cfg.CoDel != nil {
		c, err := overload.NewCoDel(*cfg.CoDel)
		if err != nil {
			return nil, err
		}
		codel = c
	}

	payload := make([]byte, cfg.PayloadBits)
	queues := make([][]*overloadPending, n)
	backlog := 0

	// pop removes input in's head from its queue.
	pop := func(in int) {
		queues[in] = queues[in][1:]
		backlog--
	}
	// retire settles a shed or lost head by the retry rule: open loop
	// re-offers after `after` rounds; closed loop asks the budget and
	// fails fast (drops the head) when it is dry.
	retire := func(in, round, after int) {
		pm := queues[in][0]
		if budget == nil {
			pm.eligible = round + 1 + after
			return
		}
		if !budget.Allow() {
			pop(in)
			stats.Shed++
			return
		}
		pm.eligible = round + budget.Backoff(pm.offers, rng)
	}
	// oldestHead finds the input whose queue head is stalest (ties by
	// input index), or −1 when every queue is empty.
	oldestHead := func() int {
		best := -1
		for in := 0; in < n; in++ {
			if len(queues[in]) == 0 {
				continue
			}
			if best == -1 || queues[in][0].firstRound < queues[best][0].firstRound {
				best = in
			}
		}
		return best
	}

	for round := 0; round < cfg.Rounds; round++ {
		// CoDel drain: shed the stalest heads while the sojourn rule
		// says the backlog has stood above target for a full interval.
		if codel != nil {
			for {
				in := oldestHead()
				if in < 0 || !codel.Drop(round, round-queues[in][0].firstRound) {
					break
				}
				pop(in)
				stats.Shed++
			}
		}

		// The pool's congestion loop sees this round's queue depth.
		p.NoteBacklog(backlog)

		// Fresh arrivals at the surge-multiplied load.
		load := cfg.Surge.Load(round, cfg.Load)
		for in := 0; in < n; in++ {
			if rng.Float64() >= load {
				continue
			}
			queues[in] = append(queues[in], &overloadPending{firstRound: round, eligible: round})
			backlog++
			stats.Offered++
			if budget != nil {
				budget.Earn()
			}
		}

		// Every eligible queue head offers this round.
		var msgs []switchsim.Message
		for in := 0; in < n; in++ {
			if len(queues[in]) == 0 || queues[in][0].eligible > round {
				continue
			}
			if queues[in][0].offers > 0 {
				stats.Retries++
			}
			queues[in][0].offers++
			msgs = append(msgs, switchsim.Message{Input: in, Payload: payload})
		}

		rr, err := p.Run(msgs)
		if err != nil {
			return nil, err
		}

		// Shed heads re-schedule by the retry rule.
		for _, sh := range rr.Shed {
			retire(sh.Input, round, sh.RetryAfter)
		}
		// The deliveries and the shed list ascend by input, as msgs
		// does, so one walk settles every other head: a delivered head
		// is booked against the freshness SLO, and a head admitted but
		// lost (contract violation, fabric drop) re-enters by the retry
		// rule with no advertised wait.
		var delivered []switchsim.Delivery
		if rr.Result != nil {
			delivered = rr.Result.Delivered
		}
		shed := rr.Shed
		for _, msg := range msgs {
			switch in := msg.Input; {
			case len(shed) > 0 && shed[0].Input == in:
				shed = shed[1:]
			case len(delivered) > 0 && delivered[0].Input == in:
				delivered = delivered[1:]
				if age := round - queues[in][0].firstRound; cfg.Deadline > 0 && age > cfg.Deadline {
					stats.DeadlineMissed++
				} else {
					stats.Delivered++
					stats.GoodputPerRound[round]++
				}
				pop(in)
			default:
				retire(in, round, 0)
			}
		}
		if len(delivered) > 0 {
			return nil, fmt.Errorf("pool: delivery on input %d matches no offered head", delivered[0].Input)
		}

		if backlog > stats.MaxBacklog {
			stats.MaxBacklog = backlog
		}
	}

	stats.FinalBacklog = backlog
	stats.Pool = p.Stats()
	return stats, nil
}

package overload

import (
	"fmt"
	"math"
	"math/rand"
)

// RetryConfig tunes the client-side retry budget and backoff. The
// budget is a token bucket refilled by fresh offers: each new message
// earns Budget retry tokens, each retry spends one, and a client out
// of tokens fails fast (the message is shed) instead of feeding a
// retry storm. The backoff is full-jitter exponential, so a cohort of
// messages shed in the same round desynchronizes instead of returning
// as a thundering herd.
type RetryConfig struct {
	// Budget is the retry-to-offer ratio: tokens earned per fresh
	// offer. 0 means the default (0.5); it must stay below ~1 for the
	// budget to bound retry amplification.
	Budget float64
	// BackoffBase is the first retry's maximum wait in rounds; the
	// window doubles per attempt. 0 means the default (1).
	BackoffBase int
	// BackoffCap caps the jitter window in rounds. 0 means the default
	// (16).
	BackoffCap int
	// Burst caps the token bucket, bounding the retry burst after an
	// idle stretch. 0 means the default (8).
	Burst float64
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Budget == 0 {
		c.Budget = 0.5
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 1
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 16
	}
	if c.Burst == 0 {
		c.Burst = 8
	}
	return c
}

// Validate rejects malformed retry budgets.
func (c RetryConfig) Validate() error {
	d := c.withDefaults()
	switch {
	case math.IsNaN(d.Budget) || d.Budget < 0:
		return fmt.Errorf("overload: retry budget %v must be positive", c.Budget)
	case d.BackoffBase < 1:
		return fmt.Errorf("overload: backoff base %d must be ≥ 1 round", c.BackoffBase)
	case d.BackoffCap < d.BackoffBase:
		return fmt.Errorf("overload: backoff cap %d below base %d", d.BackoffCap, d.BackoffBase)
	case math.IsNaN(d.Burst) || d.Burst < 1:
		return fmt.Errorf("overload: retry burst %v must be ≥ 1", c.Burst)
	}
	return nil
}

// RetryBudget is the token bucket. Not safe for concurrent use.
type RetryBudget struct {
	cfg   RetryConfig
	state RetrySnapshot
}

// RetrySnapshot is a RetryBudget's whole mutable state.
type RetrySnapshot struct {
	Tokens float64
	// Allowed and Denied count the retries admitted and shed.
	Allowed, Denied int
}

// NewRetryBudget builds a budget starting with a full burst.
func NewRetryBudget(cfg RetryConfig) (*RetryBudget, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &RetryBudget{cfg: cfg, state: RetrySnapshot{Tokens: cfg.Burst}}, nil
}

// Snapshot returns the budget's state.
func (b *RetryBudget) Snapshot() RetrySnapshot { return b.state }

// Restore replaces the budget's state with a snapshot.
func (b *RetryBudget) Restore(s RetrySnapshot) { b.state = s }

// Earn credits one fresh offer's worth of retry tokens.
func (b *RetryBudget) Earn() {
	b.state.Tokens += b.cfg.Budget
	if b.state.Tokens > b.cfg.Burst {
		b.state.Tokens = b.cfg.Burst
	}
}

// Allow spends one token if available; a false return means the retry
// is over budget and the message must be shed (fail fast).
func (b *RetryBudget) Allow() bool {
	if b.state.Tokens >= 1 {
		b.state.Tokens--
		b.state.Allowed++
		return true
	}
	b.state.Denied++
	return false
}

// Backoff draws the jittered wait before a message's next offer:
// uniform in [1, min(base·2^(attempt−1), cap)] — full jitter, so
// same-round cohorts spread across the whole window.
func (b *RetryBudget) Backoff(attempt int, rng *rand.Rand) int {
	if attempt < 1 {
		attempt = 1
	}
	window := b.cfg.BackoffCap
	if attempt-1 < 30 {
		if w := b.cfg.BackoffBase << uint(attempt-1); w < window {
			window = w
		}
	}
	return 1 + rng.Intn(window)
}

// Tokens returns the current bucket level.
func (b *RetryBudget) Tokens() float64 { return b.state.Tokens }

// Allowed returns how many retries the budget admitted; Denied how
// many it shed.
func (b *RetryBudget) Allowed() int { return b.state.Allowed }

// Denied returns the fail-fast count.
func (b *RetryBudget) Denied() int { return b.state.Denied }

package overload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSurgeFaultValidate(t *testing.T) {
	bad := []Fault{
		{Mode: Step, Factor: -2, From: 0, Until: 10},           // negative multiplier
		{Mode: Sustained, Factor: 0},                           // zero multiplier
		{Mode: Sustained, Factor: math.NaN()},                  // NaN multiplier
		{Mode: Sustained, Factor: math.Inf(1)},                 // infinite multiplier
		{Mode: Step, Factor: 2},                                // step needs a bounded window
		{Mode: Ramp, Factor: 2, From: 5},                       // ramp needs a bounded window
		{Mode: Step, Factor: 2, From: 10, Until: 5},            // empty window
		{Mode: Sustained, Factor: 2, From: -1},                 // negative From
		{Mode: Flash, Factor: 2, Prob: 0, From: 0, Until: 5},   // zero spike prob
		{Mode: Flash, Factor: 2, Prob: 1.5, From: 0, Until: 5}, // prob > 1
		{Mode: Mode(99), Factor: 2},                            // unknown mode
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("Validate accepted %v", f)
		}
	}
	good := []Fault{
		{Mode: Step, Factor: 4, From: 10, Until: 20},
		{Mode: Ramp, Factor: 3, From: 0, Until: 30},
		{Mode: Flash, Factor: 8, Prob: 0.2},
		{Mode: Sustained, Factor: 4, From: 5},
		{Mode: Sustained, Factor: 0.5}, // a dip is a legal load fault
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("Validate rejected %v: %v", f, err)
		}
	}
}

func TestSurgePlaneShapes(t *testing.T) {
	p := NewPlane(1)
	if err := p.Add(Fault{Mode: Step, Factor: 4, From: 10, Until: 20}); err != nil {
		t.Fatal(err)
	}
	for round, want := range map[int]float64{0: 1, 9: 1, 10: 4, 19: 4, 20: 1} {
		if got := p.Multiplier(round); got != want {
			t.Errorf("step: round %d multiplier %v, want %v", round, got, want)
		}
	}

	r := NewPlane(1)
	if err := r.Add(Fault{Mode: Ramp, Factor: 5, From: 0, Until: 10}); err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for round := 0; round < 10; round++ {
		m := r.Multiplier(round)
		if m <= prev {
			t.Fatalf("ramp not increasing at round %d: %v ≤ %v", round, m, prev)
		}
		prev = m
	}
	if got := r.Multiplier(9); got != 5 {
		t.Errorf("ramp peak %v, want 5", got)
	}
	if got := r.Multiplier(10); got != 1 {
		t.Errorf("ramp after window %v, want 1", got)
	}

	s := NewPlane(1)
	if err := s.Add(Fault{Mode: Sustained, Factor: 4, From: 3}); err != nil {
		t.Fatal(err)
	}
	if got := s.Multiplier(2); got != 1 {
		t.Errorf("sustained before From: %v", got)
	}
	if got := s.Multiplier(1000); got != 4 {
		t.Errorf("sustained runs forever: %v, want 4", got)
	}
}

// Flash spikes are deterministic in (seed, round) regardless of call
// order, and hit roughly Prob of the rounds.
func TestSurgeFlashDeterministic(t *testing.T) {
	build := func() *Plane {
		p := NewPlane(42)
		if err := p.Add(Fault{Mode: Flash, Factor: 8, Prob: 0.25}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := build(), build()
	spikes := 0
	for round := 0; round < 400; round++ {
		ma := a.Multiplier(round)
		if mb := b.Multiplier(399 - round); round == 399-round && ma != mb {
			t.Fatalf("round %d: call order changed the sample", round)
		}
		if ma != b.Multiplier(round) {
			t.Fatalf("round %d: %v vs %v across identical planes", round, ma, b.Multiplier(round))
		}
		if ma == 8 {
			spikes++
		} else if ma != 1 {
			t.Fatalf("round %d: flash multiplier %v is neither 1 nor 8", round, ma)
		}
	}
	if spikes < 50 || spikes > 150 {
		t.Errorf("flash hit %d/400 rounds, want ≈100", spikes)
	}
	if got := a.ExpectedMultiplier(7); math.Abs(got-(1+0.25*7)) > 1e-12 {
		t.Errorf("flash expected multiplier %v, want %v", got, 1+0.25*7)
	}
}

// TestMultiplierAllocs requires a flash draw to allocate nothing: the
// per-(round, fault) spike stream lives on the stack.
func TestMultiplierAllocs(t *testing.T) {
	p := NewPlane(42)
	if err := p.Add(Fault{Mode: Flash, Factor: 8, Prob: 0.25}); err != nil {
		t.Fatal(err)
	}
	round := 0
	if a := testing.AllocsPerRun(100, func() {
		round++
		p.Multiplier(round)
	}); a != 0 {
		t.Fatalf("Multiplier with a flash fault allocated %v times per call", a)
	}
}

func TestSurgeCompoundAndClamp(t *testing.T) {
	p := NewPlane(3)
	if err := p.Add(Fault{Mode: Sustained, Factor: 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(Fault{Mode: Step, Factor: 3, From: 0, Until: 5}); err != nil {
		t.Fatal(err)
	}
	if got := p.Multiplier(0); got != 6 {
		t.Errorf("compound multiplier %v, want 6", got)
	}
	if got := p.Load(0, 0.3); got != 1 {
		t.Errorf("load must clamp to 1, got %v", got)
	}
	if got := p.Load(10, 0.3); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("load 0.3×2 = %v, want 0.6", got)
	}
	var nilPlane *Plane
	if nilPlane.Multiplier(5) != 1 || nilPlane.Load(5, 0.3) != 0.3 {
		t.Error("nil plane must be the identity")
	}
}

func TestAIMDControlLaw(t *testing.T) {
	a := NewAIMD()
	if a.Fraction() != 1.0 {
		t.Fatalf("controller must start at the full fraction, got %v", a.Fraction())
	}
	a.OnCongestion()
	if a.Fraction() != 0.5 {
		t.Fatalf("multiplicative decrease: %v, want 0.5", a.Fraction())
	}
	a.OnClean()
	if math.Abs(a.Fraction()-0.55) > 1e-12 {
		t.Fatalf("additive increase: %v, want 0.55", a.Fraction())
	}
	for i := 0; i < 100; i++ {
		a.OnCongestion()
	}
	if a.Fraction() != 0.1 {
		t.Fatalf("decrease must floor at 0.1, got %v", a.Fraction())
	}
	if a.Cap(20) != 2 {
		t.Fatalf("cap at min fraction: %d, want 2", a.Cap(20))
	}
	if a.Cap(1) != 1 {
		t.Fatal("cap must never starve a live fabric")
	}
	if a.Cap(0) != 0 {
		t.Fatal("cap over a dead fabric must be 0")
	}
	for i := 0; i < 100; i++ {
		a.OnClean()
	}
	if a.Fraction() != 1.0 {
		t.Fatalf("increase must ceil at 1, got %v", a.Fraction())
	}
	if a.Decreases() != 101 || a.Increases() != 101 {
		t.Errorf("ledger %d/%d, want 101/101", a.Decreases(), a.Increases())
	}
}

func TestCoDelValidate(t *testing.T) {
	if err := (CoDelConfig{Target: 8, Interval: 8}).Validate(); err == nil {
		t.Error("accepted target == interval")
	}
	if err := (CoDelConfig{Target: 9, Interval: 8}).Validate(); err == nil {
		t.Error("accepted target > interval")
	}
	if err := (CoDelConfig{Target: -1, Interval: 8}).Validate(); err == nil {
		t.Error("accepted negative target")
	}
	if err := (CoDelConfig{}).Validate(); err != nil {
		t.Errorf("rejected defaults: %v", err)
	}
}

func TestCoDelDrainEpisode(t *testing.T) {
	c, err := NewCoDel(CoDelConfig{Target: 2, Interval: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Sojourn below target: never drops.
	for round := 0; round < 10; round++ {
		if c.Drop(round, 1) {
			t.Fatalf("round %d: dropped under target", round)
		}
	}
	// Sojourn above target: the interval must elapse first.
	for round := 10; round < 14; round++ {
		if c.Drop(round, 5) {
			t.Fatalf("round %d: dropped before the interval elapsed", round)
		}
	}
	if !c.Drop(14, 5) {
		t.Fatal("drain must open after a full interval above target")
	}
	if c.Episodes() != 1 {
		t.Fatalf("episodes = %d, want 1", c.Episodes())
	}
	// While draining, drops recur on the accelerating schedule.
	dropped := 1
	for round := 15; round < 40; round++ {
		for c.Drop(round, 5) {
			dropped++
		}
	}
	if dropped < 5 {
		t.Fatalf("persistent overload drained only %d heads", dropped)
	}
	// Recovery closes the episode; the next one re-arms from scratch.
	if c.Drop(40, 1) {
		t.Fatal("dropped after recovery")
	}
	for round := 41; round < 45; round++ {
		if c.Drop(round, 3) {
			t.Fatalf("round %d: new episode must re-arm the interval", round)
		}
	}
	if c.Dropped() != dropped {
		t.Fatalf("ledger %d, want %d", c.Dropped(), dropped)
	}
}

func TestRetryBudgetTokens(t *testing.T) {
	if _, err := NewRetryBudget(RetryConfig{Budget: -1}); err == nil {
		t.Error("accepted negative budget")
	}
	if _, err := NewRetryBudget(RetryConfig{BackoffBase: 8, BackoffCap: 2}); err == nil {
		t.Error("accepted cap below base")
	}
	b, err := NewRetryBudget(RetryConfig{Budget: 0.5, Burst: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Burn the initial burst.
	if !b.Allow() || !b.Allow() {
		t.Fatal("initial burst must allow retries")
	}
	if b.Allow() {
		t.Fatal("empty bucket must fail fast")
	}
	// Two fresh offers earn one retry at budget 0.5.
	b.Earn()
	if b.Allow() {
		t.Fatal("half a token is not a retry")
	}
	b.Earn()
	if !b.Allow() {
		t.Fatal("earned token must admit a retry")
	}
	if b.Allowed() != 3 || b.Denied() != 2 {
		t.Errorf("ledger %d/%d, want 3/2", b.Allowed(), b.Denied())
	}
	// Bucket saturates at Burst.
	for i := 0; i < 100; i++ {
		b.Earn()
	}
	if b.Tokens() != 2 {
		t.Errorf("bucket %v, want burst cap 2", b.Tokens())
	}
}

func TestRetryBackoffJitterBounds(t *testing.T) {
	b, err := NewRetryBudget(RetryConfig{BackoffBase: 2, BackoffCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		for attempt, window := range map[int]int{1: 2, 2: 4, 3: 8, 4: 16, 5: 16, 40: 16} {
			d := b.Backoff(attempt, rng)
			if d < 1 || d > window {
				t.Fatalf("attempt %d: backoff %d outside [1,%d]", attempt, d, window)
			}
			if attempt == 4 {
				seen[d] = true
			}
		}
	}
	if len(seen) < 12 {
		t.Errorf("full jitter must spread the window, saw only %d/16 values", len(seen))
	}
}

func TestBrownoutStateMachine(t *testing.T) {
	b := NewBrownout()
	// Seven congested rounds then a clean one: streak resets, no entry.
	for i := 0; i < 7; i++ {
		b.Observe(true)
	}
	b.Observe(false)
	if b.Level() != 0 {
		t.Fatal("entered before 8 consecutive congested rounds")
	}
	// Eight consecutive congested rounds step down one level.
	for i := 0; i < 8; i++ {
		b.Observe(true)
	}
	if b.Level() != 1 || b.Scale() != 0.75 {
		t.Fatalf("level %d scale %v, want 1 and 0.75", b.Level(), b.Scale())
	}
	// Descent is bounded at level 3.
	for i := 0; i < 40; i++ {
		b.Observe(true)
	}
	if b.Level() != 3 || b.Scale() != 0.75*0.75*0.75 {
		t.Fatalf("level %d scale %v, want max 3 and 0.421875", b.Level(), b.Scale())
	}
	// Recovery steps up one level per full clean window of 16 rounds.
	for i := 0; i < 15; i++ {
		b.Observe(false)
	}
	if b.Level() != 3 {
		t.Fatalf("level %d after 15 clean rounds, want 3", b.Level())
	}
	b.Observe(false)
	if b.Level() != 2 {
		t.Fatalf("level %d after one clean window, want 2", b.Level())
	}
	for i := 0; i < 32; i++ {
		b.Observe(false)
	}
	if b.Level() != 0 {
		t.Fatalf("level %d after three clean windows, want 0", b.Level())
	}
	if b.Enters() != 3 || b.Exits() != 3 {
		t.Errorf("transition ledger %d/%d, want 3/3", b.Enters(), b.Exits())
	}
}

// TestConfigValidate pins every error path of the controller config:
// the backlog waterline.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("rejected defaults: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"NaN backlog factor", func(c *Config) { c.BacklogFactor = math.NaN() }, "backlog factor"},
		{"backlog factor below 1", func(c *Config) { c.BacklogFactor = 0.5 }, "backlog factor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate on %+v: got %v, want mention of %q", cfg, err, tc.want)
			}
		})
	}
}

// TestRetryConfigValidate pins every error path of the client retry
// budget.
func TestRetryConfigValidate(t *testing.T) {
	if err := (RetryConfig{}).Validate(); err != nil {
		t.Errorf("rejected defaults: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*RetryConfig)
		want   string
	}{
		{"NaN budget", func(c *RetryConfig) { c.Budget = math.NaN() }, "retry budget"},
		{"negative budget", func(c *RetryConfig) { c.Budget = -1 }, "retry budget"},
		{"backoff base below 1", func(c *RetryConfig) { c.BackoffBase = -1 }, "backoff base"},
		{"backoff cap below base", func(c *RetryConfig) { c.BackoffBase = 8; c.BackoffCap = 2 }, "backoff cap"},
		{"NaN burst", func(c *RetryConfig) { c.Burst = math.NaN() }, "retry burst"},
		{"burst below 1", func(c *RetryConfig) { c.Burst = 0.5 }, "retry burst"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg RetryConfig
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate on %+v: got %v, want mention of %q", cfg, err, tc.want)
			}
		})
	}
}

// checkTwins drives a machine through a seeded warm-up, restores a
// fresh twin from its Snapshot, then makes the same calls on both.
// call(m, round, x) makes the call draw x selects in that round and
// reports everything the machine answers; the two reports must agree
// at every round. Bit 0 of x is sticky (it flips with probability
// 1/12), so a call can key a regime on it long enough to cross the
// machines' streak and interval thresholds.
func checkTwins[M any](t *testing.T, fresh func() M, restore func(from, to M), call func(m M, round, x int) string) {
	t.Helper()
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		draws := make([]int, 400)
		regime := 0
		for i := range draws {
			if rng.Intn(12) == 0 {
				regime ^= 1
			}
			draws[i] = rng.Intn(1<<20)<<1 | regime
		}
		orig := fresh()
		split := rng.Intn(200)
		for round, x := range draws[:split] {
			call(orig, round, x)
		}
		twin := fresh()
		restore(orig, twin)
		for round := split; round < len(draws); round++ {
			want, got := call(orig, round, draws[round]), call(twin, round, draws[round])
			if got != want {
				t.Fatalf("seed %d round %d (restored at %d): twin answers %s, original %s", seed, round, split, got, want)
			}
		}
	}
}

// TestSnapshotTwinsContinueIdentically: each machine's Snapshot holds
// its whole mutable state, so a twin restored from it continues
// exactly as the original.
func TestSnapshotTwinsContinueIdentically(t *testing.T) {
	t.Run("AIMD", func(t *testing.T) {
		checkTwins(t, NewAIMD,
			func(from, to *AIMD) { to.Restore(from.Snapshot()) },
			func(a *AIMD, _, x int) string {
				if x&1 == 1 {
					a.OnCongestion()
				} else {
					a.OnClean()
				}
				return fmt.Sprint(a.Snapshot(), a.Fraction(), a.Cap(37), a.Increases(), a.Decreases())
			})
	})
	t.Run("Brownout", func(t *testing.T) {
		checkTwins(t, NewBrownout,
			func(from, to *Brownout) { to.Restore(from.Snapshot()) },
			func(b *Brownout, _, x int) string {
				changed := b.Observe(x&1 == 1)
				return fmt.Sprint(changed, b.Snapshot(), b.Level(), b.Scale(), b.Enters(), b.Exits())
			})
	})
	t.Run("CoDel", func(t *testing.T) {
		fresh := func() *CoDel {
			c, err := NewCoDel(CoDelConfig{Target: 2, Interval: 6})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		checkTwins(t, fresh,
			func(from, to *CoDel) { to.Restore(from.Snapshot()) },
			func(c *CoDel, round, x int) string {
				// A standing queue in regime 1, a draining one in 0;
				// each shed head leaves a younger one.
				sojourn := (x >> 1) % 3
				if x&1 == 1 {
					sojourn = 2 + (x>>1)%12
				}
				var drops []bool
				for k := 0; k < 4; k++ {
					drops = append(drops, c.Drop(round, sojourn-k))
					if !drops[k] {
						break
					}
				}
				return fmt.Sprint(drops, c.Snapshot(), c.Episodes(), c.Dropped())
			})
	})
	t.Run("RetryBudget", func(t *testing.T) {
		fresh := func() *RetryBudget {
			b, err := NewRetryBudget(RetryConfig{Budget: 0.3, Burst: 4})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		checkTwins(t, fresh,
			func(from, to *RetryBudget) { to.Restore(from.Snapshot()) },
			func(b *RetryBudget, _, x int) string {
				// Fresh offers refill the bucket in regime 1; retries
				// drain it in regime 0.
				var answer any
				switch {
				case x&1 == 1 && x%5 != 0:
					b.Earn()
				case x%3 == 0:
					answer = b.Backoff(1+(x>>2)%6, rand.New(rand.NewSource(int64(x))))
				default:
					answer = b.Allow()
				}
				return fmt.Sprint(answer, b.Snapshot(), b.Tokens(), b.Allowed(), b.Denied())
			})
	})
}

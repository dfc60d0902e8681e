package pool

import (
	"fmt"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/overload"
	"concentrators/internal/switchsim"
)

// newSmallPool builds a pool over k columnsort 64×16 replicas
// (ε = 1, healthy threshold 15) — small enough that a modest base
// load oversubscribes it 4× under surge.
func newSmallPool(t *testing.T, cfg Config, k int) *Pool {
	t.Helper()
	sws := make([]core.FaultInjectable, k)
	for i := range sws {
		sw, err := core.NewColumnsortSwitchBeta(64, 16, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		sws[i] = sw
	}
	p, err := New(cfg, sws...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sustainedSurge(t *testing.T, factor float64, from int) *overload.Plane {
	t.Helper()
	pl := overload.NewPlane(1)
	if err := pl.Add(overload.Fault{Mode: overload.Sustained, Factor: factor, From: from}); err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestOverloadSessionValidate(t *testing.T) {
	valid := OverloadSessionConfig{Rounds: 10, Load: 0.5, PayloadBits: 4}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*OverloadSessionConfig)
	}{
		{"zero rounds", func(c *OverloadSessionConfig) { c.Rounds = 0 }},
		{"load above 1", func(c *OverloadSessionConfig) { c.Load = 1.5 }},
		{"negative load", func(c *OverloadSessionConfig) { c.Load = -0.1 }},
		{"zero payload", func(c *OverloadSessionConfig) { c.PayloadBits = 0 }},
		{"negative deadline", func(c *OverloadSessionConfig) { c.Deadline = -1 }},
		{"negative retry budget", func(c *OverloadSessionConfig) {
			c.Retry = &overload.RetryConfig{Budget: -1}
		}},
		{"backoff cap below base", func(c *OverloadSessionConfig) {
			c.Retry = &overload.RetryConfig{BackoffBase: 8, BackoffCap: 2}
		}},
		{"codel target at interval", func(c *OverloadSessionConfig) {
			c.CoDel = &overload.CoDelConfig{Target: 4, Interval: 4}
		}},
	} {
		cfg := valid
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
}

// TestOpenLoopCollapseClosedLoopRecovery is the PR's core property:
// on the same seed, under a sustained 4× surge, the open loop (static
// ⌊α′m′⌋ gate, synchronized retries at the advertised RetryAfter)
// collapses metastably — the client backlog grows without bound, head
// sojourn exceeds any freshness SLO, and goodput goes to zero — while
// the closed loop (retry budget + CoDel drain + congestion-aware
// admission) keeps steady-state goodput within 10% of the live
// threshold.
func TestOpenLoopCollapseClosedLoopRecovery(t *testing.T) {
	surge := sustainedSurge(t, 4, 20)
	const rounds, half = 240, 120
	session := func(closed bool) *OverloadSessionStats {
		var pc Config
		sc := OverloadSessionConfig{
			Rounds: rounds, Load: 0.25, PayloadBits: 4, Seed: 42, Deadline: 8, Surge: surge,
		}
		if closed {
			pc.Overload = &overload.Config{BacklogFactor: 4}
			sc.Retry = &overload.RetryConfig{Budget: 0.01, BackoffBase: 1, BackoffCap: 2, Burst: 2}
			sc.CoDel = &overload.CoDelConfig{Target: 2, Interval: 4}
		}
		st, err := RunOverloadSession(newSmallPool(t, pc, 1), sc)
		if err != nil {
			t.Fatal(err)
		}
		got := st.Delivered + st.DeadlineMissed + st.Shed + st.FinalBacklog
		if got != st.Offered {
			t.Fatalf("conservation violated: offered %d != delivered %d + missed %d + shed %d + backlog %d",
				st.Offered, st.Delivered, st.DeadlineMissed, st.Shed, st.FinalBacklog)
		}
		return st
	}
	lastHalf := func(st *OverloadSessionStats) int {
		sum := 0
		for _, g := range st.GoodputPerRound[half:] {
			sum += g
		}
		return sum
	}

	open, closed := session(false), session(true)
	const thr = 15 // columnsort 64×16 healthy ⌊α′m′⌋

	if g := lastHalf(open); g > thr*half/2 {
		t.Errorf("open loop did not collapse: last-half goodput %d > %d", g, thr*half/2)
	}
	if g := lastHalf(closed); g < thr*half*9/10 {
		t.Errorf("closed loop below 90%% of threshold: last-half goodput %d < %d", g, thr*half*9/10)
	}
	if og, cg := lastHalf(open), lastHalf(closed); cg < 2*max(og, 1) {
		t.Errorf("closed-loop goodput %d not ≥ 2× open-loop %d", cg, og)
	}
	if open.Shed != 0 {
		t.Errorf("open loop has no client shed path, got %d", open.Shed)
	}
	if closed.Shed == 0 {
		t.Error("closed loop under 4× surge never shed")
	}
	if closed.MaxBacklog*10 > open.MaxBacklog {
		t.Errorf("closed-loop backlog %d not an order below open-loop %d", closed.MaxBacklog, open.MaxBacklog)
	}
}

// overloadShapes are the surge shapes of the overload session
// fixture: step, ramp, flash crowd and sustained oversubscription.
var overloadShapes = map[string]overload.Fault{
	"step":      {Mode: overload.Step, Factor: 4, From: 30, Until: 90},
	"ramp":      {Mode: overload.Ramp, Factor: 4, From: 0, Until: 120},
	"flash":     {Mode: overload.Flash, Factor: 6, Prob: 0.3},
	"sustained": {Mode: overload.Sustained, Factor: 4, From: 10},
}

// runShapeSession runs the overload session fixture: the named surge
// shape against 2 replicas at seed 7 for rounds rounds, open loop or
// closed (AIMD and brownout in the pool, retry budget and CoDel at the
// clients). It fails the test unless the session conservation law
// holds and something was offered.
func runShapeSession(t *testing.T, shape string, closed bool, rounds int) *OverloadSessionStats {
	t.Helper()
	pl := overload.NewPlane(int64(len(shape)))
	if err := pl.Add(overloadShapes[shape]); err != nil {
		t.Fatal(err)
	}
	var pc Config
	sc := OverloadSessionConfig{
		Rounds: rounds, Load: 0.25, PayloadBits: 4, Seed: 7, Deadline: 6, Surge: pl,
	}
	if closed {
		pc.Overload = &overload.Config{}
		sc.Retry = &overload.RetryConfig{Budget: 0.05, BackoffBase: 1, BackoffCap: 4}
		sc.CoDel = &overload.CoDelConfig{Target: 3, Interval: 6}
	}
	st, err := RunOverloadSession(newSmallPool(t, pc, 2), sc)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Delivered + st.DeadlineMissed + st.Shed + st.FinalBacklog
	if got != st.Offered {
		t.Fatalf("conservation violated: offered %d, accounted %d (delivered %d missed %d shed %d backlog %d)",
			st.Offered, got, st.Delivered, st.DeadlineMissed, st.Shed, st.FinalBacklog)
	}
	if st.Offered == 0 {
		t.Fatal("surge session offered nothing")
	}
	return st
}

// The session-level conservation law holds across every surge shape,
// both loops, concurrently (the -race CI run exercises the pool's
// locking through RunOverloadSession).
func TestOverloadConservationAcrossShapes(t *testing.T) {
	for shape := range overloadShapes {
		for _, loop := range []string{"open", "closed"} {
			shape, loop := shape, loop
			t.Run(fmt.Sprintf("%s/%s", shape, loop), func(t *testing.T) {
				t.Parallel()
				runShapeSession(t, shape, loop == "closed", 150)
			})
		}
	}
}

// TestCongestionLoopEngagesAndRecovers drives the pool's closed loop
// directly: sustained reported backlog decreases the AIMD fraction and
// steps the brownout contract down; a clean stretch recovers both.
func TestCongestionLoopEngagesAndRecovers(t *testing.T) {
	p := newSmallPool(t, Config{Overload: &overload.Config{BacklogFactor: 1}}, 1)
	const rawThr = 15
	if got := p.Threshold(); got != rawThr {
		t.Fatalf("healthy threshold %d, want %d", got, rawThr)
	}

	p.NoteBacklog(1000) // far above BacklogFactor × threshold
	for i := 0; i < 40; i++ {
		if _, err := p.Run(fullMsgs(4)); err != nil {
			t.Fatal(err)
		}
	}
	mid := p.Stats()
	if mid.CongestedRounds != 40 {
		t.Errorf("congested rounds %d, want 40", mid.CongestedRounds)
	}
	if mid.AdmitFraction >= 1 {
		t.Errorf("AIMD fraction %v did not decrease under congestion", mid.AdmitFraction)
	}
	if mid.BrownoutLevel == 0 || mid.BrownoutEnters == 0 {
		t.Errorf("brownout never engaged: level %d enters %d", mid.BrownoutLevel, mid.BrownoutEnters)
	}
	if got := p.Threshold(); got >= rawThr {
		t.Errorf("effective threshold %d not below healthy %d under overload", got, rawThr)
	}

	p.NoteBacklog(0)
	for i := 0; i < 80; i++ {
		if _, err := p.Run(fullMsgs(1)); err != nil {
			t.Fatal(err)
		}
	}
	end := p.Stats()
	if end.AdmitFraction != 1 {
		t.Errorf("AIMD fraction %v did not recover to 1", end.AdmitFraction)
	}
	if end.BrownoutLevel != 0 || end.BrownoutExits == 0 {
		t.Errorf("brownout did not step back up: level %d exits %d", end.BrownoutLevel, end.BrownoutExits)
	}
	if got := p.Threshold(); got != rawThr {
		t.Errorf("recovered threshold %d, want %d", got, rawThr)
	}
	if end.CongestedRounds != 40 {
		t.Errorf("clean stretch miscounted as congested: %d", end.CongestedRounds)
	}
}

// TestAdmitRotationFairness pins the round-robin admission window:
// under persistent overload every input is admitted within one full
// rotation — no fixed input-order priority starving the high wires.
func TestAdmitRotationFairness(t *testing.T) {
	p := newSmallPool(t, Config{}, 1)
	n := p.Inputs()
	admitted := make(map[int]bool)
	msgs := make([]switchsim.Message, n)
	for i := range msgs {
		msgs[i] = switchsim.Message{Input: i, Payload: []byte{1, 0}}
	}
	for round := 0; round < n; round++ {
		rr, err := p.Run(msgs)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Result == nil {
			t.Fatal("full-load round not served")
		}
		for _, d := range rr.Result.Delivered {
			admitted[d.Input] = true
		}
	}
	for in := 0; in < n; in++ {
		if !admitted[in] {
			t.Errorf("input %d never admitted across %d overloaded rounds", in, n)
		}
	}
}

func TestMeanRetryAfter(t *testing.T) {
	var zero Stats
	if got := zero.MeanRetryAfter(); got != 0 {
		t.Fatalf("zero-shed MeanRetryAfter = %v, want 0", got)
	}
	p := newPool(t, Config{RetryAfterCap: 4}, 1)
	// Two consecutive over-threshold rounds: retry-after 1 then 2.
	for i := 0; i < 2; i++ {
		if _, err := p.Run(fullMsgs(64)); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Shed != 66 { // 33 per round over the 31 threshold
		t.Fatalf("shed %d, want 66", s.Shed)
	}
	want := float64(33*1+33*2) / 66
	if got := s.MeanRetryAfter(); got != want {
		t.Fatalf("MeanRetryAfter = %v, want %v", got, want)
	}
}

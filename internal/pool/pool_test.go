package pool

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
	"concentrators/internal/switchsim"
)

// newReplicas builds k identical columnsort switches (n=64, m=32,
// β=3/4): ε=1, so the healthy guarantee threshold is 31.
func newReplicas(t *testing.T, k int) []core.FaultInjectable {
	t.Helper()
	out := make([]core.FaultInjectable, k)
	for i := range out {
		sw, err := core.NewColumnsortSwitchBeta(64, 32, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sw
	}
	return out
}

func newPool(t *testing.T, cfg Config, k int) *Pool {
	t.Helper()
	p, err := New(cfg, newReplicas(t, k)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fullMsgs offers one message on each of the first k inputs.
func fullMsgs(k int) []switchsim.Message {
	msgs := make([]switchsim.Message, k)
	for i := range msgs {
		msgs[i] = switchsim.Message{Input: i, Payload: []byte{1, 0, 1, 1}}
	}
	return msgs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted empty pool")
	}
	if _, err := New(Config{TripThreshold: -1}, newReplicas(t, 1)...); err == nil {
		t.Error("accepted negative TripThreshold")
	}
	if _, err := New(Config{ProbeAfter: 8, BackoffMax: 4}, newReplicas(t, 1)...); err == nil {
		t.Error("accepted BackoffMax < ProbeAfter")
	}
	a, err := core.NewColumnsortSwitchBeta(64, 32, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewColumnsortSwitchBeta(256, 128, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}, a, b); err == nil {
		t.Error("accepted mismatched replica geometry")
	}
}

// New refuses replicas that share a fault plane, whether one switch is
// passed twice or one plane is installed on two switches, and accepts a
// second pool over the first pool's switches, as chaos's crash restart
// builds one.
func TestNewRejectsSharedFaultPlane(t *testing.T) {
	sw := newReplicas(t, 3)
	if _, err := New(Config{}, sw[0], sw[1], sw[0]); err == nil {
		t.Error("accepted one switch as replicas 0 and 2")
	}
	plane := core.NewFaultPlane()
	for _, s := range sw[1:] {
		if err := s.SetFaultPlane(plane); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New(Config{}, sw[1], sw[2]); err == nil {
		t.Error("accepted one fault plane installed on two switches")
	}

	first := newReplicas(t, 3)
	if _, err := New(Config{}, first...); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}, first...); err != nil {
		t.Errorf("rejected a second pool over the first pool's switches: %v", err)
	}
}

// Pool.Run refuses a batch that is not strictly ascending over [0, n)
// before the round starts: the round ledger does not move.
func TestRunRejectsBadBatch(t *testing.T) {
	p := newPool(t, Config{}, 2)
	n := p.Inputs()
	msg := func(in int) switchsim.Message { return switchsim.Message{Input: in, Payload: []byte{1}} }
	for _, tc := range []struct {
		name string
		msgs []switchsim.Message
	}{
		{"input -1", []switchsim.Message{msg(-1)}},
		{"input n", []switchsim.Message{msg(0), msg(n)}},
		{"two messages on one input", []switchsim.Message{msg(3), msg(3)}},
		{"descending inputs", []switchsim.Message{msg(5), msg(3)}},
	} {
		before := p.Stats()
		if _, err := p.Run(tc.msgs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if after := p.Stats(); after.Rounds != before.Rounds || after.Offered != before.Offered {
			t.Errorf("%s: rounds %d → %d, offered %d → %d", tc.name,
				before.Rounds, after.Rounds, before.Offered, after.Offered)
		}
	}
}

func TestHealthyPoolServes(t *testing.T) {
	p := newPool(t, Config{}, 3)
	thr := p.Threshold()
	if thr <= 0 {
		t.Fatalf("healthy pool threshold %d", thr)
	}
	for round := 0; round < 10; round++ {
		rr, err := p.Run(fullMsgs(thr))
		if err != nil {
			t.Fatal(err)
		}
		if rr.ServedBy != 0 || rr.FailedOver || rr.Violated {
			t.Fatalf("round %d: served by %d, failedOver %v, violated %v",
				round, rr.ServedBy, rr.FailedOver, rr.Violated)
		}
		if got := len(rr.Result.Delivered); got != thr {
			t.Fatalf("round %d: delivered %d of %d", round, got, thr)
		}
		if len(rr.Shed) != 0 {
			t.Fatalf("round %d: shed %d under threshold", round, len(rr.Shed))
		}
	}
	s := p.Stats()
	if s.Failovers != 0 || s.Violations != 0 || s.Trips != 0 {
		t.Fatalf("healthy pool stats: %+v", s)
	}
	if s.Delivered != 10*thr {
		t.Fatalf("delivered %d, want %d", s.Delivered, 10*thr)
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	p := newPool(t, Config{RetryAfterCap: 4}, 2)
	thr := p.Threshold()
	n := p.Inputs()
	var lastRetry int
	for round := 0; round < 4; round++ {
		rr, err := p.Run(fullMsgs(n)) // full load: n > ⌊αm⌋
		if err != nil {
			t.Fatal(err)
		}
		if rr.Violated {
			t.Fatalf("round %d violated", round)
		}
		if len(rr.Shed) != n-thr {
			t.Fatalf("round %d: shed %d, want %d", round, len(rr.Shed), n-thr)
		}
		if got := len(rr.Result.Delivered); got != thr {
			t.Fatalf("round %d: delivered %d, want exactly ⌊αm⌋ = %d", round, got, thr)
		}
		retry := rr.Shed[0].RetryAfter
		if round > 0 && retry < lastRetry && lastRetry < 4 {
			t.Fatalf("round %d: retry-after shrank %d → %d while still shedding", round, lastRetry, retry)
		}
		if retry > 4 {
			t.Fatalf("round %d: retry-after %d above cap", round, retry)
		}
		lastRetry = retry
	}
	// A round under the threshold resets the shed streak.
	if _, err := p.Run(fullMsgs(1)); err != nil {
		t.Fatal(err)
	}
	rr, err := p.Run(fullMsgs(n))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Shed[0].RetryAfter != 1 {
		t.Fatalf("retry-after %d after streak reset, want 1", rr.Shed[0].RetryAfter)
	}
	s := p.Stats()
	if s.Shed != 5*(n-thr) {
		t.Fatalf("stats.Shed = %d, want %d", s.Shed, 5*(n-thr))
	}
	if s.RetryAfterTotal <= 0 {
		t.Fatal("no retry-after accounting")
	}
}

// admitReference is admission by sorting: order the inputs by their
// key (in − round) mod n, admit the first thr, and list both sides in
// input order.
func admitReference(inputs []int, n, thr int, round int64) (admitted, shed []int) {
	offset := int(round % int64(n))
	rot := func(in int) int { return ((in-offset)%n + n) % n }
	order := slices.Clone(inputs)
	sort.Slice(order, func(i, j int) bool { return rot(order[i]) < rot(order[j]) })
	k := min(thr, len(order))
	admitted, shed = order[:k], order[k:]
	sort.Ints(admitted)
	sort.Ints(shed)
	return admitted, shed
}

// checkAdmit admits msgs at thr in round and fails unless the admitted
// and shed inputs are want and wantShed, every shed message carries the
// round's retry-after, and RetryAfterTotal grows by it once per shed
// message.
func checkAdmit(t *testing.T, p *Pool, msgs []switchsim.Message, thr int, round int64, want, wantShed []int) {
	t.Helper()
	retryAfter := min(1<<min(p.shedStreak, 10), p.cfg.RetryAfterCap)
	before := p.ledger.RetryAfterTotal
	admitted, shed := p.admit(msgs, thr, round)
	var got, gotShed []int
	for _, m := range admitted {
		got = append(got, m.Input)
	}
	for _, s := range shed {
		gotShed = append(gotShed, s.Input)
		if s.RetryAfter != retryAfter {
			t.Fatalf("input %d: retry-after %d, want %d", s.Input, s.RetryAfter, retryAfter)
		}
	}
	if !slices.Equal(got, want) || !slices.Equal(gotShed, wantShed) {
		t.Fatalf("%d inputs, thr %d, round %d: admitted %v shed %v, want %v and %v",
			len(msgs), thr, round, got, gotShed, want, wantShed)
	}
	if grew := p.ledger.RetryAfterTotal - before; grew != retryAfter*len(wantShed) {
		t.Fatalf("%d inputs, thr %d, round %d: RetryAfterTotal grew %d, want %d",
			len(msgs), thr, round, grew, retryAfter*len(wantShed))
	}
}

// The one-pass admission window equals admission by the rotated sort on
// random ascending batches, for every threshold from 0 to len+1 and for
// rounds whose window wraps past the last input.
func TestAdmitMatchesRotatedSort(t *testing.T) {
	p := newPool(t, Config{RetryAfterCap: 8}, 1)
	rng := rand.New(rand.NewSource(21))
	wrapped := 0
	for trial := 0; trial < 400; trial++ {
		var msgs []switchsim.Message
		var inputs []int
		load := rng.Float64()
		for in := 0; in < p.n; in++ {
			if rng.Float64() < load {
				msgs = append(msgs, switchsim.Message{Input: in})
				inputs = append(inputs, in)
			}
		}
		round := rng.Int63n(4 * int64(p.n))
		first := sort.SearchInts(inputs, int(round%int64(p.n)))
		for thr := 0; thr <= len(msgs)+1; thr++ {
			if thr < len(msgs) && first+thr > len(msgs) {
				wrapped++
			}
			wantAdmitted, wantShed := admitReference(inputs, p.n, thr, round)
			checkAdmit(t, p, msgs, thr, round, wantAdmitted, wantShed)
		}
	}
	if wrapped == 0 {
		t.Fatal("no admission window wrapped past the last input")
	}
}

// admitModulo is the per-message admission rule: the message at index
// i of an ascending batch enters when (i − first) mod len < thr, where
// first indexes the first input at or past round mod n.
func admitModulo(msgs []switchsim.Message, n, thr int, round int64) (admitted, shed []int) {
	offset := int(round % int64(n))
	first := sort.Search(len(msgs), func(i int) bool { return msgs[i].Input >= offset })
	for i, msg := range msgs {
		if (i-first+len(msgs))%len(msgs) < thr {
			admitted = append(admitted, msg.Input)
		} else {
			shed = append(shed, msg.Input)
		}
	}
	return admitted, shed
}

// The admitted window and the shed list equal the modulo rule for
// batches of 1 to n evenly spread inputs, every shedding threshold
// from 0 up, and every offset, before the first input, on and between
// inputs and past the last.
func TestAdmitWindowMatchesModuloRule(t *testing.T) {
	p := newPool(t, Config{RetryAfterCap: 8}, 1)
	for _, k := range []int{1, 2, 5, 17, p.n} {
		msgs := make([]switchsim.Message, k)
		for i := range msgs {
			msgs[i] = switchsim.Message{Input: (2*i + 1) * p.n / (2 * k)}
		}
		for thr := 0; thr < k; thr++ {
			for round := int64(0); round <= int64(p.n); round++ {
				wantAdmitted, wantShed := admitModulo(msgs, p.n, thr, round)
				checkAdmit(t, p, msgs, thr, round, wantAdmitted, wantShed)
			}
		}
	}
}

// TestFailoverWithinOneRound is the heart of the arbiter: a dead chip
// on the primary must not cost the round its delivery guarantee.
func TestFailoverWithinOneRound(t *testing.T) {
	p := newPool(t, Config{TripThreshold: 1}, 3)
	thr := p.Threshold()
	if err := p.InjectFault(0, core.ChipFault{Stage: 0, Chip: 1, Mode: core.ChipDead}); err != nil {
		t.Fatal(err)
	}
	rr, err := p.Run(fullMsgs(thr))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FailedOver {
		t.Fatal("no failover despite dead chip on primary")
	}
	if rr.Violated {
		t.Fatal("round violated: failover did not complete within the round")
	}
	if rr.ServedBy == 0 {
		t.Fatal("faulty primary still serving")
	}
	if got := len(rr.Result.Delivered); got < min(thr, rr.Threshold) {
		t.Fatalf("delivered %d < %d after failover", got, min(thr, rr.Threshold))
	}
	s := p.Stats()
	if s.SameRoundFailovers < 1 || s.Trips < 1 {
		t.Fatalf("stats after failover: %+v", s)
	}
	if p.States()[0] != Quarantined {
		t.Fatalf("tripped replica state %v, want quarantined", p.States()[0])
	}
}

// TestBreakerProbeRepairsDegraded walks the full state machine:
// healthy → (violation, trip) → quarantined → (half-open probe scan)
// → repaired under a degraded contract.
func TestBreakerProbeRepairsDegraded(t *testing.T) {
	p := newPool(t, Config{TripThreshold: 1, ProbeAfter: 1, BackoffMax: 8}, 2)
	thr := p.Threshold()
	// A final-stage stuck output degrades to (n, m−1, thr−1) — a
	// repairable fault, unlike a dead column chip whose bypass costs
	// more ε than this small switch has outputs.
	if err := p.InjectFault(0, core.ChipFault{Stage: 1, Chip: 0, Mode: core.ChipStuckOutput, A: 0}); err != nil {
		t.Fatal(err)
	}
	// Round 0: violation on primary, in-round failover, trip.
	if _, err := p.Run(fullMsgs(thr)); err != nil {
		t.Fatal(err)
	}
	if p.States()[0] != Quarantined {
		t.Fatalf("state %v after trip", p.States()[0])
	}
	// Run past the probe backoff; the half-open scan must localize the
	// dead chip and re-admit replica 0 under a degraded contract.
	for round := 0; round < 4; round++ {
		if _, err := p.Run(fullMsgs(4)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.States()[0]; got != Repaired {
		t.Fatalf("state %v after probe, want repaired", got)
	}
	s := p.Stats()
	if s.Probes < 1 || s.Scans < 1 || s.Repairs < 1 {
		t.Fatalf("probe accounting: %+v", s)
	}
	r0 := s.Replicas[0]
	if r0.Threshold <= 0 || r0.Threshold >= thr {
		t.Fatalf("degraded threshold %d, want in (0, %d)", r0.Threshold, thr)
	}
	// The spare (healthy, full contract) must stay primary over the
	// repaired replica's weaker contract.
	if p.Active() != 1 {
		t.Fatalf("active %d, want healthy spare 1", p.Active())
	}
}

func TestKillReviveCycle(t *testing.T) {
	p := newPool(t, Config{TripThreshold: 1, ProbeAfter: 1}, 2)
	thr := p.Threshold()
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	rr, err := p.Run(fullMsgs(thr))
	if err != nil {
		t.Fatal(err)
	}
	if rr.ServedBy != 1 || rr.Violated {
		t.Fatalf("killed primary: served by %d, violated %v", rr.ServedBy, rr.Violated)
	}
	if len(rr.Result.Delivered) != thr {
		t.Fatalf("delivered %d, want %d", len(rr.Result.Delivered), thr)
	}
	// While killed, probes must not re-admit it.
	for round := 0; round < 6; round++ {
		if _, err := p.Run(fullMsgs(2)); err != nil {
			t.Fatal(err)
		}
		if got := p.States()[0]; got != Quarantined {
			t.Fatalf("killed replica state %v", got)
		}
	}
	if err := p.Revive(0); err != nil {
		t.Fatal(err)
	}
	// The revived board is probed and re-admitted at full contract.
	for round := 0; round < 3; round++ {
		if _, err := p.Run(fullMsgs(2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.States()[0]; got != Healthy {
		t.Fatalf("revived replica state %v, want healthy", got)
	}
	if got := p.Stats().Replicas[0].Threshold; got != thr {
		t.Fatalf("revived threshold %d, want full %d", got, thr)
	}
}

// TestAllReplicasDown: with every replica killed the pool refuses all
// traffic (threshold 0) and flags the rounds as violated.
func TestAllReplicasDown(t *testing.T) {
	p := newPool(t, Config{}, 2)
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Kill(1); err != nil {
		t.Fatal(err)
	}
	rr, err := p.Run(fullMsgs(4))
	if err != nil {
		t.Fatal(err)
	}
	if rr.ServedBy != -1 || !rr.Violated || rr.Threshold != 0 {
		t.Fatalf("dead pool round: %+v", rr)
	}
	if len(rr.Shed) != 4 {
		t.Fatalf("shed %d, want all 4 refused", len(rr.Shed))
	}
}

// TestExponentialReadmissionBackoff: successive failed probes double
// the quarantine period up to the cap.
func TestExponentialReadmissionBackoff(t *testing.T) {
	p := newPool(t, Config{TripThreshold: 1, ProbeAfter: 1, BackoffMax: 4}, 2)
	// A killed replica fails every probe.
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 16; round++ {
		if _, err := p.Run(fullMsgs(2)); err != nil {
			t.Fatal(err)
		}
	}
	probes := p.Stats().Replicas[0].Probes
	// backoffs 1,2,4,4,4... over 16 rounds → at most ~5 probes; without
	// backoff there would be ~16.
	if probes < 2 || probes > 6 {
		t.Fatalf("probes %d over 16 rounds, want backoff to bound them in [2,6]", probes)
	}
}

// TestSetScanLatency: a scan latency set mid-run delays the next probe
// verdict by that many rounds, and a negative latency is rejected
// without changing the one in force.
func TestSetScanLatency(t *testing.T) {
	p := newPool(t, Config{TripThreshold: 1, ProbeAfter: 2}, 2)
	thr := p.Threshold()
	if err := p.SetScanLatency(3); err != nil {
		t.Fatal(err)
	}
	if err := p.SetScanLatency(-1); err == nil {
		t.Fatal("accepted a negative scan latency")
	}
	if err := p.InjectFault(0, core.ChipFault{Stage: 0, Chip: 1, Mode: core.ChipDead}); err != nil {
		t.Fatal(err)
	}
	// Round 0 trips replica 0, so its verdict lands at round
	// 0 + ProbeAfter + 3 = 5.
	for round := 0; round <= 5; round++ {
		if _, err := p.Run(fullMsgs(thr)); err != nil {
			t.Fatal(err)
		}
		want := 0
		if round == 5 {
			want = 1
		}
		if got := p.Stats().Probes; got != want {
			t.Fatalf("after round %d: %d probes, want %d", round, got, want)
		}
	}
}

// TestPoolImplementsConcentrator drives the pool through the standard
// bit-serial simulator and the standard guarantee checker.
func TestPoolImplementsConcentrator(t *testing.T) {
	var sw core.Concentrator = newPool(t, Config{}, 2)
	thr := core.Threshold(sw)
	if thr <= 0 {
		t.Fatalf("pool threshold %d", thr)
	}
	msgs := fullMsgs(thr)
	res, err := switchsim.Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := switchsim.CheckGuarantee(sw, msgs, res); err != nil {
		t.Fatalf("pool violates the concentrator contract: %v", err)
	}
}

// TestRouteFacadeFailsOver mirrors the Run failover test on the
// payload-free Route path.
func TestRouteFacadeFailsOver(t *testing.T) {
	p := newPool(t, Config{TripThreshold: 1}, 2)
	thr := p.Threshold()
	if err := p.InjectFault(0, core.ChipFault{Stage: 0, Chip: 0, Mode: core.ChipDead}); err != nil {
		t.Fatal(err)
	}
	valid := bitvec.New(p.Inputs())
	for i := 0; i < p.Inputs(); i++ {
		valid.Set(i, true)
	}
	out, err := p.Route(valid)
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	seen := make(map[int]bool)
	for _, o := range out {
		if o < 0 {
			continue
		}
		if o >= p.Outputs() {
			t.Fatalf("output %d beyond base m %d", o, p.Outputs())
		}
		if seen[o] {
			t.Fatalf("output %d carries two messages", o)
		}
		seen[o] = true
		routed++
	}
	if routed < min(thr, p.Stats().Replicas[1].Threshold) {
		t.Fatalf("routed %d after failover", routed)
	}
	if p.Active() == 0 {
		t.Fatal("faulty primary still active after Route failover")
	}
}

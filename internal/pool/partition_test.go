package pool

import (
	"math/rand"
	"reflect"
	"testing"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
	"concentrators/internal/partition"
)

// leaseTrace runs rounds full-load rounds against p and accumulates the
// physical ground truth: frames delivered by the rightful primary plus
// frames delivered by stale believers (split-brain shadows).
func leaseTrace(t *testing.T, p *Pool, rounds, load int) (trueServed, violated int, results []*RoundResult) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		rr, err := p.Run(fullMsgs(load))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if rr.Result != nil {
			trueServed += len(rr.Result.Delivered)
		}
		trueServed += rr.ShadowDelivered
		if rr.Violated {
			violated++
		}
		results = append(results, rr)
	}
	return trueServed, violated, results
}

// checkLeaseConservation asserts the pool-side slice of the seven-term
// law: every physically served frame is eventually booked exactly once
// as Delivered, Fenced, or still-buffered in-flight.
func checkLeaseConservation(t *testing.T, s Stats, trueServed int) {
	t.Helper()
	if got := s.Delivered + s.Fenced + s.InFlightAcks; got != trueServed {
		t.Errorf("conservation broken: Delivered %d + Fenced %d + InFlightAcks %d = %d, want trueServed %d",
			s.Delivered, s.Fenced, s.InFlightAcks, got, trueServed)
	}
	if s.Offered != s.Admitted+s.Shed {
		t.Errorf("admission law broken: Offered %d != Admitted %d + Shed %d", s.Offered, s.Admitted, s.Shed)
	}
}

func TestLeaseFencesLateDeliveries(t *testing.T) {
	p := newPool(t, Config{Lease: LeaseConfig{Rounds: 4}}, 3)
	// Cut the primary's control edge for longer than the lease: the
	// holder serves dark until its grant lapses, the arbiter waits out
	// the lease and hands off under a bumped token, and the dark
	// rounds' buffered acks must come back Fenced at the heal.
	if err := p.InjectPartition(partition.Fault{Mode: partition.SymmetricCut, Replica: 0, From: 2, Until: 12}); err != nil {
		t.Fatal(err)
	}
	trueServed, violated, _ := leaseTrace(t, p, 20, 32)
	s := p.Stats()
	if violated != 0 {
		t.Errorf("%d violated rounds — lease handoff should cover the whole outage", violated)
	}
	if s.LeaseHandoffs != 1 {
		t.Errorf("LeaseHandoffs = %d, want exactly 1", s.LeaseHandoffs)
	}
	if s.Fenced == 0 {
		t.Error("no frames fenced — the lapsed holder's late acks were not rejected")
	}
	if s.StaleDelivered != 0 {
		t.Errorf("%d frames Delivered under a stale fencing token", s.StaleDelivered)
	}
	if s.InFlightAcks != 0 {
		t.Errorf("%d frames still in flight after the heal", s.InFlightAcks)
	}
	if s.FenceToken != 2 {
		t.Errorf("fencing token = %d, want 2 (initial grant + one handoff)", s.FenceToken)
	}
	checkLeaseConservation(t, s, trueServed)
}

func TestUnfencedControlDoubleDelivers(t *testing.T) {
	p := newPool(t, Config{Lease: LeaseConfig{Rounds: 4, Unfenced: true}}, 3)
	if err := p.InjectPartition(partition.Fault{Mode: partition.SymmetricCut, Replica: 0, From: 2, Until: 12}); err != nil {
		t.Fatal(err)
	}
	trueServed, _, _ := leaseTrace(t, p, 20, 32)
	s := p.Stats()
	// The eager arbiter failed over on suspicion while the old holder
	// still believed its grant: both served, and the unfenced ledger
	// accepted the stale side — the double-delivery fencing prevents.
	if s.DualPrimaryRounds == 0 {
		t.Error("unfenced control produced no dual-primary rounds")
	}
	if s.StaleDelivered == 0 {
		t.Error("unfenced control delivered nothing under a stale token")
	}
	if s.ShadowServed == 0 {
		t.Error("no shadow frames — the superseded holder never served")
	}
	if s.Fenced != 0 {
		t.Errorf("unfenced control fenced %d frames", s.Fenced)
	}
	// Everything physically served lands in Delivered (duplicates and
	// all) — which is exactly why trueServed exceeds the admitted load.
	if got := s.Delivered + s.InFlightAcks; got != trueServed {
		t.Errorf("unfenced ledger %d != trueServed %d", got, trueServed)
	}
	if trueServed <= s.Admitted {
		t.Errorf("trueServed %d ≤ admitted %d — no double delivery happened", trueServed, s.Admitted)
	}
}

func TestQuorumFreezeDuringArbiterIsolation(t *testing.T) {
	p := newPool(t, Config{Lease: LeaseConfig{Rounds: 8}}, 3)
	// Isolation shorter than the lease: the minority-side arbiter must
	// freeze (no trips, no handoffs) while the incumbent coasts on its
	// belief; the buffered acks flush as Delivered at the heal because
	// the token never moved.
	if err := p.InjectPartition(partition.Fault{Mode: partition.ArbiterIsolation, Replica: partition.AllReplicas, From: 3, Until: 8}); err != nil {
		t.Fatal(err)
	}
	trueServed, violated, results := leaseTrace(t, p, 12, 32)
	s := p.Stats()
	if s.FrozenRounds != 5 {
		t.Errorf("FrozenRounds = %d, want 5", s.FrozenRounds)
	}
	frozen := 0
	for _, rr := range results {
		if rr.Frozen {
			frozen++
		}
	}
	if frozen != 5 {
		t.Errorf("%d round results flagged Frozen, want 5", frozen)
	}
	if s.LeaseHandoffs != 0 || s.Failovers != 0 || s.Trips != 0 {
		t.Errorf("frozen arbiter still acted: handoffs %d, failovers %d, trips %d",
			s.LeaseHandoffs, s.Failovers, s.Trips)
	}
	if violated != 0 {
		t.Errorf("%d violated rounds during a covered isolation window", violated)
	}
	if s.Fenced != 0 || s.StaleDelivered != 0 {
		t.Errorf("token never moved, yet Fenced %d / StaleDelivered %d", s.Fenced, s.StaleDelivered)
	}
	checkLeaseConservation(t, s, trueServed)
}

func TestAsymmetricCutSelfFencesAndHandsOff(t *testing.T) {
	p := newPool(t, Config{Lease: LeaseConfig{Rounds: 4}}, 3)
	// Grants vanish, acks still arrive: the arbiter keeps hearing a
	// healthy holder whose belief is quietly aging out. When the board
	// self-fences, the arbiter sees the refusal and re-grants to a
	// replica it can actually reach — no outage, nothing fenced.
	if err := p.InjectPartition(partition.Fault{Mode: partition.OneWay, Replica: 0, Dir: partition.ToReplica, From: 2, Until: 20}); err != nil {
		t.Fatal(err)
	}
	trueServed, violated, _ := leaseTrace(t, p, 24, 32)
	s := p.Stats()
	if violated != 0 {
		t.Errorf("%d violated rounds across the renewal-loss handoff", violated)
	}
	if s.LeaseHandoffs != 1 {
		t.Errorf("LeaseHandoffs = %d, want 1", s.LeaseHandoffs)
	}
	if s.Fenced != 0 || s.StaleDelivered != 0 || s.InFlightAcks != 0 {
		t.Errorf("acks were never cut, yet Fenced %d / StaleDelivered %d / InFlight %d",
			s.Fenced, s.StaleDelivered, s.InFlightAcks)
	}
	checkLeaseConservation(t, s, trueServed)
}

// TestPartitionConservationProperty is the seven-term law's pool-side
// property test (CI runs it under -race): across random partition
// schedules — symmetric, asymmetric, flapping, isolation, overlapping
// — every physically served frame is booked exactly once and nothing
// is ever Delivered under a stale token while fencing is on.
func TestPartitionConservationProperty(t *testing.T) {
	modes := []partition.Mode{partition.SymmetricCut, partition.OneWay, partition.Flapping, partition.ArbiterIsolation}
	for _, seed := range []int64{1, 7, 1987, 0xC0FFEE} {
		rng := rand.New(rand.NewSource(seed))
		p := newPool(t, Config{Lease: LeaseConfig{Rounds: 6, Seed: seed}}, 3)
		for i := 0; i < 4; i++ {
			from := rng.Intn(40)
			f := partition.Fault{
				Mode:    modes[rng.Intn(len(modes))],
				Replica: rng.Intn(3),
				From:    from,
				Until:   from + 2 + rng.Intn(10),
			}
			switch f.Mode {
			case partition.OneWay:
				f.Dir = partition.Direction(rng.Intn(2))
			case partition.Flapping:
				f.Prob = 0.5
			case partition.ArbiterIsolation:
				f.Replica = partition.AllReplicas
			}
			if err := p.InjectPartition(f); err != nil {
				t.Fatal(err)
			}
		}
		trueServed, _, _ := leaseTrace(t, p, 60, 32)
		s := p.Stats()
		if s.StaleDelivered != 0 {
			t.Errorf("seed %d: %d frames Delivered under a stale fencing token", seed, s.StaleDelivered)
		}
		checkLeaseConservation(t, s, trueServed)
	}
}

func TestLeaseCheckpointRestoreMidPartition(t *testing.T) {
	cfg := Config{Lease: LeaseConfig{Rounds: 4}}
	cut := partition.Fault{Mode: partition.SymmetricCut, Replica: 0, From: 2, Until: 12}
	p := newPool(t, cfg, 3)
	if err := p.InjectPartition(cut); err != nil {
		t.Fatal(err)
	}
	// Stop mid-outage, with acks buffered behind the cut and the lease
	// already handed off: the worst possible moment to crash.
	served := 0
	for i := 0; i < 8; i++ {
		rr, err := p.Run(fullMsgs(32))
		if err != nil {
			t.Fatal(err)
		}
		if rr.Result != nil {
			served += len(rr.Result.Delivered)
		}
		served += rr.ShadowDelivered
	}
	snap := p.Snapshot()
	if len(snap.InFlight) == 0 {
		t.Fatal("checkpoint carries no in-flight acks — the test lost its point")
	}
	if snap.FenceToken == 0 || !snap.HasPartitionPlane {
		t.Fatalf("checkpoint dropped lease state: token %d, plane %v", snap.FenceToken, snap.HasPartitionPlane)
	}

	q := newPool(t, cfg, 3)
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Snapshot(), snap) {
		t.Fatal("snapshot → restore → snapshot is not a fixed point")
	}
	// Both pools replay the rest of the run on identical traffic: the
	// restored arbiter must fence the same late acks the original does.
	servedQ := served
	for i := 8; i < 20; i++ {
		rrP, err := p.Run(fullMsgs(32))
		if err != nil {
			t.Fatal(err)
		}
		rrQ, err := q.Run(fullMsgs(32))
		if err != nil {
			t.Fatal(err)
		}
		if rrP.ServedBy != rrQ.ServedBy || rrP.Fenced != rrQ.Fenced ||
			rrP.LeaseToken != rrQ.LeaseToken || rrP.Frozen != rrQ.Frozen {
			t.Fatalf("round %d diverged after restore: %+v vs %+v", i, rrP, rrQ)
		}
		if rrP.Result != nil {
			served += len(rrP.Result.Delivered)
		}
		served += rrP.ShadowDelivered
		if rrQ.Result != nil {
			servedQ += len(rrQ.Result.Delivered)
		}
		servedQ += rrQ.ShadowDelivered
	}
	sp, sq := p.Stats(), q.Stats()
	for _, tc := range []struct {
		name         string
		a, b, trueSv int
		s            Stats
	}{
		{"original", sp.Delivered, sp.Fenced, served, sp},
		{"restored", sq.Delivered, sq.Fenced, servedQ, sq},
	} {
		checkLeaseConservation(t, tc.s, tc.trueSv)
	}
	if sp.Fenced != sq.Fenced || sp.Delivered != sq.Delivered || sp.FenceToken != sq.FenceToken {
		t.Errorf("ledgers diverged: original (D %d, F %d, tok %d) vs restored (D %d, F %d, tok %d)",
			sp.Delivered, sp.Fenced, sp.FenceToken, sq.Delivered, sq.Fenced, sq.FenceToken)
	}
	if sp.Fenced == 0 {
		t.Error("the outage fenced nothing — the scenario under test never happened")
	}
}

func TestLeaseConfigValidation(t *testing.T) {
	if _, err := New(Config{Lease: LeaseConfig{Rounds: -1}}, newReplicas(t, 1)...); err == nil {
		t.Error("accepted negative lease duration")
	}
	if _, err := New(Config{Lease: LeaseConfig{Unfenced: true}}, newReplicas(t, 1)...); err == nil {
		t.Error("accepted the unfenced control without a lease")
	}
	// Partition faults without the lease machinery have no semantics.
	p := newPool(t, Config{}, 2)
	err := p.InjectPartition(partition.Fault{Mode: partition.SymmetricCut, Replica: 0, From: 0, Until: 4})
	if err == nil {
		t.Error("injected a partition into a lease-less pool")
	}
	// Replica bounds are checked against the pool, not just the fault.
	q := newPool(t, Config{Lease: LeaseConfig{Rounds: 4}}, 2)
	if err := q.InjectPartition(partition.Fault{Mode: partition.SymmetricCut, Replica: 5, From: 0, Until: 4}); err == nil {
		t.Error("injected a partition for a replica the pool does not have")
	}
}

// TestRouteServesUnderTheLease: Route is one Run round, so on a lease
// pool it serves under a granted lease — the holder and the primary
// agree and the delivered frames book under a live fencing token —
// instead of moving the primary behind the lease's back.
func TestRouteServesUnderTheLease(t *testing.T) {
	sws := make([]core.FaultInjectable, 3)
	for i := range sws {
		sw, err := core.NewColumnsortSwitchBeta(256, 128, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		sws[i] = sw
	}
	p, err := New(Config{Lease: LeaseConfig{Rounds: 2}}, sws...)
	if err != nil {
		t.Fatal(err)
	}
	valid := bitvec.New(p.Inputs())
	for i := 0; i < 40; i++ {
		valid.Set(i*6, true)
	}
	out, err := p.Route(valid)
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for _, o := range out {
		if o >= 0 {
			routed++
		}
	}
	s := p.Stats()
	if routed != 40 || s.Delivered != 40 {
		t.Fatalf("routed %d, booked %d, want 40 each", routed, s.Delivered)
	}
	if s.FenceToken < 1 || s.LeaseHolder != p.Active() {
		t.Fatalf("Route served without a lease: fence token %d, lease holder %d, active %d",
			s.FenceToken, s.LeaseHolder, p.Active())
	}
}

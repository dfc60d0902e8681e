package pool

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
	"testing"

	"concentrators/internal/byzantine"
)

// bfault builds a bounded behavior fault.
func bfault(mode byzantine.Mode, replica, count, from, until int) byzantine.Fault {
	return byzantine.Fault{Mode: mode, Replica: replica, Count: count, From: from, Until: until}
}

func TestByzantineConfigValidate(t *testing.T) {
	if _, err := New(Config{Byzantine: ByzantineConfig{AuditEvery: -1}}, newReplicas(t, 1)...); err == nil {
		t.Error("accepted negative audit cadence")
	}
	p := newPool(t, Config{}, 2)
	if err := p.InjectBehavior(bfault(byzantine.Replay, 5, 1, 0, 4)); err == nil {
		t.Error("accepted behavior fault naming a replica outside the pool")
	}
	if err := p.InjectBehavior(byzantine.Fault{Mode: byzantine.Replay, Replica: 0, From: 0, Until: 0}); err == nil {
		t.Error("accepted unbounded behavior fault")
	}
}

// TestHonestVerifiedLedgerMatchesPhysical: with verification on but
// every actor honest, the verified ledger books exactly the physical
// deliveries — provenance costs nothing on the truthful path.
func TestHonestVerifiedLedgerMatchesPhysical(t *testing.T) {
	p := newPool(t, Config{Byzantine: ByzantineConfig{Verify: true, AuditEvery: 2, Seed: 7}}, 3)
	truth := 0
	for round := 0; round < 20; round++ {
		rr, err := p.Run(fullMsgs(p.Threshold()))
		if err != nil {
			t.Fatal(err)
		}
		truth += rr.TrueDelivered
	}
	s := p.Stats()
	if s.Delivered != truth || truth == 0 {
		t.Fatalf("Delivered %d, physical truth %d", s.Delivered, truth)
	}
	if s.Forged != 0 || s.Duplicated != 0 || s.WitnessConvictions != 0 || s.Equivocations != 0 {
		t.Fatalf("honest run booked misbehavior: %+v", s)
	}
	if s.Audits == 0 {
		t.Fatal("audit cadence never fired")
	}
}

// TestReplayBookedDuplicated: stale re-emissions carry genuine tags,
// so the dedup window — not the checksum — catches them, and not one
// reaches Delivered. The caller owns each returned Result and flips
// every delivered bit; the replay ring keeps its own copies, so a
// replay still carries its genuine payload and is not booked Forged.
func TestReplayBookedDuplicated(t *testing.T) {
	p := newPool(t, Config{Byzantine: ByzantineConfig{Verify: true, Seed: 3}}, 3)
	if err := p.InjectBehavior(bfault(byzantine.Replay, 0, 3, 2, 8)); err != nil {
		t.Fatal(err)
	}
	truth, replayed := 0, 0
	for round := 0; round < 12; round++ {
		rr, err := p.Run(fullMsgs(p.Threshold()))
		if err != nil {
			t.Fatal(err)
		}
		truth += rr.TrueDelivered
		replayed += rr.ReplayedInjected
		if rr.Result == nil {
			continue
		}
		for _, d := range rr.Result.Delivered {
			for c := range d.Payload {
				d.Payload[c] ^= 1
			}
		}
	}
	s := p.Stats()
	if replayed == 0 {
		t.Fatal("plane injected no replays")
	}
	if s.Duplicated != replayed {
		t.Fatalf("Duplicated %d, injected replays %d", s.Duplicated, replayed)
	}
	if s.Delivered != truth {
		t.Fatalf("Delivered %d, physical truth %d — a replay leaked into the ledger", s.Delivered, truth)
	}
	if s.Forged != 0 {
		t.Fatalf("replays booked Forged: %d", s.Forged)
	}
}

// TestFabricationBookedForged: a keyless forger's acks fail the keyed
// checksum and book Forged, never Delivered.
func TestFabricationBookedForged(t *testing.T) {
	p := newPool(t, Config{Byzantine: ByzantineConfig{Verify: true, Seed: 11}}, 3)
	if err := p.InjectBehavior(bfault(byzantine.FabricatedAck, 0, 4, 1, 6)); err != nil {
		t.Fatal(err)
	}
	truth, forged := 0, 0
	for round := 0; round < 10; round++ {
		rr, err := p.Run(fullMsgs(p.Threshold()))
		if err != nil {
			t.Fatal(err)
		}
		truth += rr.TrueDelivered
		forged += rr.ForgedInjected
	}
	s := p.Stats()
	if forged == 0 {
		t.Fatal("plane fabricated nothing")
	}
	if s.Forged != forged {
		t.Fatalf("Forged %d, injected fabrications %d", s.Forged, forged)
	}
	if s.Delivered != truth {
		t.Fatalf("Delivered %d, physical truth %d — a forgery leaked into the ledger", s.Delivered, truth)
	}
}

// TestMisrouteConvictedByWitnesses: misrouted acks are invisible to
// provenance (payload and tag genuine), so the witness audits must
// convict the misrouter through the standard breaker.
func TestMisrouteConvictedByWitnesses(t *testing.T) {
	p := newPool(t, Config{
		TripThreshold: 2, ProbeAfter: 4,
		Byzantine: ByzantineConfig{Verify: true, AuditEvery: 1, Seed: 5},
	}, 3)
	if err := p.InjectBehavior(bfault(byzantine.Misroute, 0, 16, 0, 40)); err != nil {
		t.Fatal(err)
	}
	convictedAt := -1
	for round := 0; round < 40; round++ {
		if _, err := p.Run(fullMsgs(p.Threshold())); err != nil {
			t.Fatal(err)
		}
		if convictedAt < 0 && p.Stats().WitnessConvictions > 0 {
			convictedAt = round
		}
	}
	s := p.Stats()
	if s.Audits == 0 || s.AuditDisagreements == 0 {
		t.Fatalf("audits %d, disagreements %d — cross-examination never fired", s.Audits, s.AuditDisagreements)
	}
	if s.WitnessConvictions == 0 {
		t.Fatal("misrouter was never convicted")
	}
	if s.Replicas[0].Trips == 0 {
		t.Fatal("conviction did not trip the misrouter's breaker")
	}
	// Misrouting never touches the physical result, and no forged or
	// duplicated frame exists to book.
	if s.Forged != 0 || s.Duplicated != 0 {
		t.Fatalf("misrouting booked Forged %d / Duplicated %d", s.Forged, s.Duplicated)
	}
	if convictedAt < 0 {
		t.Fatal("conviction round not observed")
	}

	// Determinism: the same seed replays the same conviction round.
	q := newPool(t, Config{
		TripThreshold: 2, ProbeAfter: 4,
		Byzantine: ByzantineConfig{Verify: true, AuditEvery: 1, Seed: 5},
	}, 3)
	if err := q.InjectBehavior(bfault(byzantine.Misroute, 0, 16, 0, 40)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round <= convictedAt; round++ {
		if _, err := q.Run(fullMsgs(q.Threshold())); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Stats().WitnessConvictions; got != s.WitnessConvictions-0 && got == 0 {
		t.Fatalf("replay did not convict by round %d", convictedAt)
	}
	if q.Stats().WitnessConvictions == 0 {
		t.Fatalf("same seed did not reproduce the conviction by round %d", convictedAt)
	}
}

// TestEquivocatorLosesLease: the arbiter cross-checks health reports
// against its own ledger evidence; a caught fork trips the breaker,
// and under the lease machinery the equivocator loses the primary
// lease behind a bumped fencing token.
func TestEquivocatorLosesLease(t *testing.T) {
	p := newPool(t, Config{
		TripThreshold: 2, ProbeAfter: 8,
		Lease:     LeaseConfig{Rounds: 4},
		Byzantine: ByzantineConfig{Verify: true, Seed: 9},
	}, 3)
	if err := p.InjectBehavior(bfault(byzantine.Equivocation, 0, 0, 2, 5)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 12; round++ {
		if _, err := p.Run(fullMsgs(p.Threshold())); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Equivocations == 0 {
		t.Fatal("equivocation never caught")
	}
	if s.Replicas[0].Trips == 0 {
		t.Fatal("equivocator's breaker never tripped")
	}
	if s.LeaseHandoffs == 0 || s.FenceToken < 2 {
		t.Fatalf("equivocator kept the lease: handoffs %d, token %d", s.LeaseHandoffs, s.FenceToken)
	}
	if s.LeaseHolder == 0 {
		t.Fatal("equivocator still holds the lease")
	}
	// Its stale token can no longer book: the ledger still conserves.
	if s.Delivered == 0 {
		t.Fatal("pool stopped delivering after the handoff")
	}
}

// TestUnverifiedControlDoubleCounts is the experimental control the
// acceptance demands: with verification off, replays and fabrications
// land straight in Delivered — the ledger reports more frames than
// were ever physically delivered.
func TestUnverifiedControlDoubleCounts(t *testing.T) {
	p := newPool(t, Config{Byzantine: ByzantineConfig{Verify: false, Seed: 3}}, 3)
	if err := p.InjectBehavior(bfault(byzantine.Replay, 0, 3, 2, 8)); err != nil {
		t.Fatal(err)
	}
	if err := p.InjectBehavior(bfault(byzantine.FabricatedAck, 0, 2, 3, 7)); err != nil {
		t.Fatal(err)
	}
	truth := 0
	for round := 0; round < 12; round++ {
		rr, err := p.Run(fullMsgs(p.Threshold()))
		if err != nil {
			t.Fatal(err)
		}
		truth += rr.TrueDelivered
	}
	s := p.Stats()
	if s.Delivered <= truth {
		t.Fatalf("unverified control did not double-count: Delivered %d, truth %d", s.Delivered, truth)
	}
	if s.Forged != 0 || s.Duplicated != 0 {
		t.Fatalf("blind ledger booked verdicts: %+v", s)
	}
}

// TestByzantineClaimConservation is the claim-stream conservation law
// under concurrent Run callers (the -race property): every claim the
// round presented — genuine, replayed, or fabricated — settles into
// exactly one of Delivered, Forged, or Duplicated, and with
// verification on Delivered equals the physical ground truth.
func TestByzantineClaimConservation(t *testing.T) {
	for _, seed := range []int64{1, 1987, 42} {
		p := newPool(t, Config{
			TripThreshold: 2, ProbeAfter: 4,
			Byzantine: ByzantineConfig{Verify: true, AuditEvery: 2, Seed: seed},
		}, 3)
		for _, f := range []byzantine.Fault{
			bfault(byzantine.Misroute, 0, 4, 2, 20),
			bfault(byzantine.Replay, 0, 2, 5, 25),
			bfault(byzantine.FabricatedAck, 1, 3, 10, 30),
			bfault(byzantine.Equivocation, 1, 0, 12, 15),
		} {
			if err := p.InjectBehavior(f); err != nil {
				t.Fatal(err)
			}
		}
		const callers, rounds = 4, 15
		var mu sync.Mutex
		truth, replayed, forged := 0, 0, 0
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					rr, err := p.Run(fullMsgs(31))
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					truth += rr.TrueDelivered
					replayed += rr.ReplayedInjected
					forged += rr.ForgedInjected
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		s := p.Stats()
		if got, want := s.Delivered+s.Forged+s.Duplicated, truth+replayed+forged; got != want {
			t.Fatalf("seed %d: claim conservation broken: Delivered %d + Forged %d + Duplicated %d = %d, claims presented %d",
				seed, s.Delivered, s.Forged, s.Duplicated, got, want)
		}
		if s.Delivered != truth {
			t.Fatalf("seed %d: Delivered %d diverges from physical truth %d under verification",
				seed, s.Delivered, truth)
		}
	}
}

// TestByzantineCheckpointRoundTrip (crash-restart durability): the
// behavior plane, verifier dedup window, stamper sequence counter,
// witness streaks, and per-replica replay rings all survive gob and
// Restore — Snapshot of the restored pool equals the checkpoint.
func TestByzantineCheckpointRoundTrip(t *testing.T) {
	sws := newReplicas(t, 3)
	cfg := Config{
		TripThreshold: 2, ProbeAfter: 4,
		Byzantine: ByzantineConfig{Verify: true, AuditEvery: 2, Seed: 13},
	}
	a, err := New(cfg, sws...)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InjectBehavior(bfault(byzantine.Replay, 0, 2, 2, 30)); err != nil {
		t.Fatal(err)
	}
	if err := a.InjectBehavior(bfault(byzantine.Misroute, 0, 4, 2, 30)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 12; round++ {
		if _, err := a.Run(fullMsgs(31)); err != nil {
			t.Fatal(err)
		}
	}
	cp := a.Snapshot()
	if !cp.HasBehaviorPlane || len(cp.BehaviorFaults) != 2 {
		t.Fatalf("snapshot lost the behavior plane: %+v", cp)
	}
	if len(cp.VerifierWindow) == 0 || cp.StamperNextSeq == 0 {
		t.Fatal("snapshot lost the verification edges")
	}
	if len(cp.Replicas[0].Recent) == 0 {
		t.Fatal("snapshot lost replica 0's replay ring")
	}
	if cp.Ledger.Duplicated == 0 {
		t.Fatal("run produced no duplicates to checkpoint under")
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatalf("checkpoint does not gob-encode: %v", err)
	}
	var decoded Checkpoint
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatalf("checkpoint does not gob-decode: %v", err)
	}
	if !reflect.DeepEqual(cp, &decoded) {
		t.Fatalf("gob round-trip altered the checkpoint\n got: %+v\nwant: %+v", &decoded, cp)
	}

	b, err := New(cfg, sws...)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(&decoded); err != nil {
		t.Fatal(err)
	}
	if again := b.Snapshot(); !reflect.DeepEqual(cp, again) {
		t.Fatalf("restored pool snapshots differently\n got: %+v\nwant: %+v", again, cp)
	}

	// Restored and original continue in lockstep: the replay window
	// must keep catching duplicates identically on both sides.
	for round := 0; round < 10; round++ {
		ra, err := a.Run(fullMsgs(31))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run(fullMsgs(31))
		if err != nil {
			t.Fatal(err)
		}
		if ra.Duplicated != rb.Duplicated || ra.Forged != rb.Forged || ra.TrueDelivered != rb.TrueDelivered {
			t.Fatalf("round %d diverged after restore: %+v vs %+v", round, ra, rb)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Delivered != sb.Delivered || sa.Duplicated != sb.Duplicated || sa.Forged != sb.Forged {
		t.Fatalf("ledgers diverged after restore: %+v vs %+v", sa, sb)
	}
}

// TestMidAuditSnapshotRestoreLockstep: a checkpoint taken between a
// lone-witness disagreement (streak pending) and the conviction must
// carry the streak — a liar must not reset its record by crashing the
// arbiter. With one replica killed only a single witness is available,
// so conviction takes ConvictStreak consecutive contradictions.
func TestMidAuditSnapshotRestoreLockstep(t *testing.T) {
	sws := newReplicas(t, 3)
	cfg := Config{
		TripThreshold: 2, ProbeAfter: 16,
		Byzantine: ByzantineConfig{Verify: true, AuditEvery: 1, Seed: 5},
	}
	a, err := New(cfg, sws...)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := a.InjectBehavior(bfault(byzantine.Misroute, 0, 31, 0, 60)); err != nil {
		t.Fatal(err)
	}
	// Run until exactly one lone-witness contradiction is pending.
	pendingAt := -1
	for round := 0; round < 60; round++ {
		if _, err := a.Run(fullMsgs(31)); err != nil {
			t.Fatal(err)
		}
		s := a.Stats()
		if s.WitnessConvictions > 0 {
			t.Fatalf("lone witness convicted at round %d without a streak", round)
		}
		if s.AuditDisagreements == 1 {
			pendingAt = round
			break
		}
	}
	if pendingAt < 0 {
		t.Fatal("no lone-witness disagreement within 60 rounds")
	}
	cp := a.Snapshot()
	streaks := cp.WitnessStreaks
	if len(streaks) != 3 || streaks[0] != 1 {
		t.Fatalf("mid-audit snapshot lost the pending streak: %v", streaks)
	}

	b, err := New(cfg, sws...)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(cp); err != nil {
		t.Fatal(err)
	}
	// Lockstep to conviction: both sides must convict at the same round.
	for round := 0; round < 60; round++ {
		if _, err := a.Run(fullMsgs(31)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Run(fullMsgs(31)); err != nil {
			t.Fatal(err)
		}
		ca, cb := a.Stats().WitnessConvictions, b.Stats().WitnessConvictions
		if ca != cb {
			t.Fatalf("conviction diverged at round %d after mid-audit restore: %d vs %d", round, ca, cb)
		}
		if ca > 0 {
			return
		}
	}
	t.Fatal("streaked misrouter never convicted after restore")
}

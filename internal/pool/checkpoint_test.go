package pool

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"slices"
	"strings"
	"testing"

	"concentrators/internal/byzantine"
	"concentrators/internal/core"
	"concentrators/internal/health"
	"concentrators/internal/journal"
	"concentrators/internal/link"
	"concentrators/internal/overload"
	"concentrators/internal/partition"
	"concentrators/internal/timing"
)

// TestRollingDrainRejoinZeroRegression is the maintenance property:
// rolling a checkpoint/drain/restart/rejoin across every replica in
// turn — including one serving a degraded contract — never costs a
// round its delivery guarantee, never violates, and re-admits each
// replica through the standard probe path back to its pre-drain
// contract.
func TestRollingDrainRejoinZeroRegression(t *testing.T) {
	p := newPool(t, Config{TripThreshold: 1, ProbeAfter: 1, BackoffMax: 8}, 3)
	thr := p.Threshold()

	// Give replica 0 a repairable fault and let the breaker walk it to
	// Repaired under a degraded contract, so the roll-through covers a
	// replica whose checkpoint actually carries a fault record.
	if err := p.InjectFault(0, core.ChipFault{Stage: 1, Chip: 0, Mode: core.ChipStuckOutput, A: 0}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if _, err := p.Run(fullMsgs(4)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.States()[0]; got != Repaired {
		t.Fatalf("replica 0 state %v before roll, want repaired", got)
	}
	degradedThr := p.Stats().Replicas[0].Threshold

	runFull := func(label string, drained int) {
		t.Helper()
		rr, err := p.Run(fullMsgs(thr))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if rr.Violated {
			t.Fatalf("%s: round violated", label)
		}
		want := min(thr, rr.Threshold)
		if got := len(rr.Result.Delivered); got < want {
			t.Fatalf("%s: delivered %d < %d — drain/rejoin cost deliveries", label, got, want)
		}
		if drained >= 0 && rr.ServedBy == drained {
			t.Fatalf("%s: drained replica %d served traffic", label, drained)
		}
	}

	for i := 0; i < 3; i++ {
		preStates := p.States()
		probesBefore := p.Stats().Replicas[i].Probes

		cp, err := p.CheckpointReplica(i)
		if err != nil {
			t.Fatalf("replica %d: checkpoint: %v", i, err)
		}
		if cp.ID != i || cp.State != preStates[i] {
			t.Fatalf("replica %d: checkpoint carries id %d state %v, want %d %v",
				i, cp.ID, cp.State, i, preStates[i])
		}
		if err := p.Drain(i); err != nil {
			t.Fatalf("replica %d: drain: %v", i, err)
		}
		if got := p.States()[i]; got != Quarantined {
			t.Fatalf("replica %d: state %v while drained, want quarantined", i, got)
		}
		// The restart window: the pool keeps serving at full guarantee
		// from the spares, and no probe sneaks the wiped replica back in.
		for round := 0; round < 3; round++ {
			runFull("drained", i)
			if got := p.States()[i]; got != Quarantined {
				t.Fatalf("replica %d: re-admitted while drained (state %v)", i, got)
			}
		}
		if err := p.Rejoin(i, cp); err != nil {
			t.Fatalf("replica %d: rejoin: %v", i, err)
		}
		// Re-admission goes through the standard half-open probe.
		for round := 0; round < 3; round++ {
			runFull("rejoining", -1)
		}
		if got := p.States()[i]; got != preStates[i] && got != Healthy {
			t.Fatalf("replica %d: state %v after rejoin, want %v", i, got, preStates[i])
		}
		if got := p.Stats().Replicas[i].Probes; got <= probesBefore {
			t.Fatalf("replica %d: no probe fired on rejoin (%d → %d) — re-admission bypassed the breaker",
				i, probesBefore, got)
		}
	}

	// The degraded replica came back at its degraded contract, not at a
	// fantasy full one and not locked out.
	if got := p.Stats().Replicas[0].Threshold; got != degradedThr {
		t.Fatalf("replica 0 threshold %d after roll, want preserved degraded %d", got, degradedThr)
	}
	if p.Stats().Violations != 0 {
		t.Fatalf("roll-through booked %d violations, want 0", p.Stats().Violations)
	}
}

// TestPoolSnapshotRestoreRoundTrip models a control-process
// crash-restart: a pool with chip, wire, and timing faults plus a
// closed admission loop is snapshotted mid-run, the checkpoint goes
// through gob (the journal's wire format), a fresh pool is built over
// the same switches, and Restore must reproduce the control plane
// exactly — Snapshot of the restored pool equals the checkpoint.
func TestPoolSnapshotRestoreRoundTrip(t *testing.T) {
	sws := newReplicas(t, 2)
	cfg := Config{
		TripThreshold: 1, ProbeAfter: 1, BackoffMax: 8,
		Overload: &overload.Config{BacklogFactor: 1},
	}
	a, err := New(cfg, sws...)
	if err != nil {
		t.Fatal(err)
	}
	outStage := len(a.replicas[0].sw.StageChips())
	if err := a.InjectFault(0, core.ChipFault{Stage: 1, Chip: 0, Mode: core.ChipStuckOutput, A: 0}); err != nil {
		t.Fatal(err)
	}
	if err := a.InjectWireFault(1, link.WireFault{
		Stage: outStage, Wire: 3, Mode: link.WireStuck, StuckValue: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.InjectTimingFault(1, straggler(2)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		if _, err := a.Run(fullMsgs(a.Inputs())); err != nil {
			t.Fatal(err)
		}
	}
	cp := a.Snapshot()
	if cp.Round != 20 || cp.Ledger.Rounds != 20 {
		t.Fatalf("snapshot at round %d / %d ledger rounds, want 20", cp.Round, cp.Ledger.Rounds)
	}
	if cp.Ledger.Delivered == 0 || cp.Ledger.Shed == 0 {
		t.Fatalf("snapshot ledger carries no traffic: %+v", cp.Ledger)
	}
	if len(cp.Replicas[0].KnownFaults) == 0 {
		t.Fatal("snapshot lost replica 0's localized fault record")
	}
	if !cp.Replicas[1].HasWirePlane || !cp.Replicas[1].HasTimingPlane {
		t.Fatal("snapshot lost replica 1's injected hardware planes")
	}

	// Through the journal's wire format.
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

	// The restart: a new pool over the same silicon, state from the
	// decoded checkpoint.
	b, err := New(cfg, sws...)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(&decoded); err != nil {
		t.Fatalf("restore: %v", err)
	}
	after := b.Snapshot()
	if !reflect.DeepEqual(after, cp) {
		t.Fatalf("restored control plane differs from checkpoint\n got: %+v\nwant: %+v", after, cp)
	}
	if !reflect.DeepEqual(b.States(), a.States()) {
		t.Fatalf("restored states %v, original %v", b.States(), a.States())
	}
	if b.Stats().Delivered != a.Stats().Delivered || b.Stats().Shed != a.Stats().Shed {
		t.Fatalf("restored ledger (%d delivered, %d shed) != original (%d, %d)",
			b.Stats().Delivered, b.Stats().Shed, a.Stats().Delivered, a.Stats().Shed)
	}
	// The restored pool must still serve: contracts were re-derived
	// from the restored fault record, not lost with the process.
	rr, err := b.Run(fullMsgs(b.Threshold()))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Violated || len(rr.Result.Delivered) < min(b.Threshold(), rr.Threshold) {
		t.Fatalf("restored pool first round: violated %v, delivered %d", rr.Violated, len(rr.Result.Delivered))
	}
}

// TestStatsSpreadsEveryLedgerCounter: each LedgerCheckpoint counter,
// restored at a value of its own, reads back from the Stats field of
// the same name. It fails when Stats drops a counter or a counter has
// no Stats field.
func TestStatsSpreadsEveryLedgerCounter(t *testing.T) {
	p := newPool(t, Config{}, 2)
	cp := p.Snapshot()
	ledger := reflect.ValueOf(&cp.Ledger).Elem()
	for i := 0; i < ledger.NumField(); i++ {
		ledger.Field(i).SetInt(int64(1000 + i))
	}
	if err := p.Restore(cp); err != nil {
		t.Fatal(err)
	}
	stats := reflect.ValueOf(p.Stats())
	for i := 0; i < ledger.NumField(); i++ {
		name := ledger.Type().Field(i).Name
		if f := stats.FieldByName(name); !f.IsValid() {
			t.Errorf("ledger counter %s has no Stats field", name)
		} else if f.Int() != int64(1000+i) {
			t.Errorf("Stats().%s = %d, want the restored %d", name, f.Int(), 1000+i)
		}
	}
	if got := p.Snapshot().Ledger; got != cp.Ledger {
		t.Errorf("snapshot ledger %+v, restored %+v", got, cp.Ledger)
	}
}

func TestCheckpointErrorPaths(t *testing.T) {
	p := newPool(t, Config{ProbeAfter: 1}, 2)
	if _, err := p.CheckpointReplica(5); err == nil {
		t.Error("checkpointed out-of-range replica")
	}
	if err := p.Drain(5); err == nil {
		t.Error("drained out-of-range replica")
	}
	cp, err := p.CheckpointReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Rejoin(1, cp); err == nil {
		t.Error("rejoined replica 1 from replica 0's checkpoint")
	}
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(0); err == nil {
		t.Error("drained a killed replica")
	}
	if err := p.Rejoin(0, cp); err == nil {
		t.Error("rejoined a killed replica")
	}
	if err := p.Restore(nil); err == nil {
		t.Error("restored nil checkpoint")
	}
	full := p.Snapshot()
	full.Replicas = full.Replicas[:1]
	if err := p.Restore(full); err == nil {
		t.Error("restored checkpoint with wrong replica count")
	}
	full = p.Snapshot()
	full.Active = 9
	if err := p.Restore(full); err == nil {
		t.Error("restored checkpoint with out-of-range active replica")
	}
	full = p.Snapshot()
	full.Replicas[0].ID = 1
	if err := p.Restore(full); err == nil {
		t.Error("restored checkpoint with shuffled replica ids")
	}
}

// planeFaults is what the checkpoint plane tests inject: wire and
// timing faults on replica 0 and cuts on the partition plane.
type planeFaults struct {
	wire   []link.WireFault
	timing []timing.Fault
	cuts   []partition.Fault
}

// restoreFixture gives replica 0 two all-link bit-flip faults and two
// jitter faults, and the partition plane two flapping cuts of replica
// 1. Each pair is added later-From first, so a listing sorted by From
// reverses it: bit flips compose in insertion order, and RoundDelay and
// the flap draw key each fault's stream by its index.
var restoreFixture = planeFaults{
	wire: []link.WireFault{
		{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: 0.2, From: 8},
		{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: 0.05},
	},
	timing: []timing.Fault{
		{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Jitter, Prob: 0.6, MaxDelay: 12, From: 4},
		{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Jitter, Prob: 0.4, MaxDelay: 5},
	},
	cuts: []partition.Fault{
		{Mode: partition.Flapping, Replica: 1, Prob: 0.5, From: 6, Until: 64},
		{Mode: partition.Flapping, Replica: 1, Prob: 0.3, Until: 48},
	},
}

// restoreFixtureBytes is restoreFixture in FuzzCheckpointPlanes'
// encoding (see decodePlaneFaults).
var restoreFixtureBytes = []byte{
	2, 2, 2,
	0, 0, 0, 20, 0, 0, 0, 8, 0,
	0, 0, 0, 5, 0, 0, 0, 0, 0,
	1, 0, 0, 0, 60, 12, 0, 0, 4, 0,
	1, 0, 0, 0, 40, 5, 0, 0, 0, 0,
	2, 2, 0, 50, 6, 64,
	2, 2, 0, 30, 0, 48,
}

// decodePlaneFaults reads fuzz bytes (0 past the end) as the counts of
// wire (≤ 4), timing (≤ 4) and partition (≤ 2) faults, then each fault
// one byte per field:
//
//	wire:      mode, stage+1, wire+1, BER×100, burst length, burst every, stuck value, From, Until
//	timing:    mode, stage+1, wire+1, delay, prob×100, max delay, pause length, pause every, From, Until
//	partition: mode, replica+1, direction, prob×100, From, Until
//
// Modes, targets and shapes range past the valid ones, so some faults
// are malformed and Add rejects them.
func decodePlaneFaults(raw []byte) planeFaults {
	next := func() int {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return int(b)
	}
	nw, nt, np := next()%5, next()%5, next()%3
	var pf planeFaults
	for range nw {
		pf.wire = append(pf.wire, link.WireFault{
			Mode: link.WireFaultMode(next() % 5), Stage: next()%5 - 1, Wire: next()%9 - 1,
			BER: float64(next()) / 100, BurstLen: next() % 9, BurstEvery: next() % 5,
			StuckValue: byte(next() % 3), From: next(), Until: next(),
		})
	}
	for range nt {
		pf.timing = append(pf.timing, timing.Fault{
			Mode: timing.Mode(next() % 5), Stage: next()%5 - 1, Wire: next()%9 - 1,
			Delay: next() % 8, Prob: float64(next()) / 100, MaxDelay: next() % 16,
			PauseLen: next() % 5, PauseEvery: next() % 9, From: next(), Until: next(),
		})
	}
	for range np {
		pf.cuts = append(pf.cuts, partition.Fault{
			Mode: partition.Mode(next() % 5), Replica: next()%5 - 1, Dir: partition.Direction(next() % 3),
			Prob: float64(next()) / 100, From: next(), Until: next(),
		})
	}
	return pf
}

// restoreThroughGob injects pf into a three-replica lease pool, skipping
// the faults the pool rejects, then takes a Snapshot through gob and
// Restores it into a fresh pool. It returns both pools and the number
// of faults injected.
func restoreThroughGob(t *testing.T, pf planeFaults) (orig, restored *Pool, injected int) {
	t.Helper()
	cfg := Config{Lease: LeaseConfig{Rounds: 4}}
	orig = newPool(t, cfg, 3)
	for _, f := range pf.wire {
		if orig.InjectWireFault(0, f) == nil {
			injected++
		}
	}
	for _, f := range pf.timing {
		if orig.InjectTimingFault(0, f) == nil {
			injected++
		}
	}
	for _, f := range pf.cuts {
		if orig.InjectPartition(f) == nil {
			injected++
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(orig.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := gob.NewDecoder(&buf).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	restored = newPool(t, cfg, 3)
	if err := restored.Restore(&cp); err != nil {
		t.Fatal(err)
	}
	return orig, restored, injected
}

// checkSameDraws fails unless every plane of got draws what the same
// plane of want draws over rounds 0–63: Corrupt, Delay and RoundDelay
// on every replica's links, and Visible on every replica edge.
func checkSameDraws(t *testing.T, want, got *Pool) {
	t.Helper()
	stages := len(want.replicas[0].sw.StageChips())
	frame := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0}
	x, y := make([]byte, len(frame)), make([]byte, len(frame))
	for round := range 64 {
		for i, a := range want.replicas {
			b := got.replicas[i]
			for s := 0; s <= stages; s++ {
				for _, w := range []int{0, 5} {
					at := link.LinkAddr{Stage: s, Wire: w}
					copy(x, frame)
					copy(y, frame)
					fx, ex := a.plane.Corrupt(round, at, x)
					fy, ey := b.plane.Corrupt(round, at, y)
					if fx != fy || ex != ey || !bytes.Equal(x, y) {
						t.Fatalf("replica %d round %d %v: restored plane corrupts (%d, %v) %v, original (%d, %v) %v",
							i, round, at, fy, ey, y, fx, ex, x)
					}
					if dx, dy := a.tplane.Delay(round, at), b.tplane.Delay(round, at); dx != dy {
						t.Fatalf("replica %d round %d %v: restored Delay %d, original %d", i, round, at, dy, dx)
					}
				}
			}
			if dx, dy := a.tplane.RoundDelay(round, stages), b.tplane.RoundDelay(round, stages); dx != dy {
				t.Fatalf("replica %d round %d: restored RoundDelay %d, original %d", i, round, dy, dx)
			}
			for _, dir := range []partition.Direction{partition.ToReplica, partition.FromReplica} {
				if vx, vy := want.pplane.Visible(round, i, dir), got.pplane.Visible(round, i, dir); vx != vy {
					t.Fatalf("replica %d round %d %v: restored Visible %v, original %v", i, round, dir, vy, vx)
				}
			}
		}
	}
}

// TestRestoreKeepsPlaneDraws is the regression test for checkpoints
// that listed plane faults in sorted order: Restore re-added them in
// that order, and the restored planes drew different corruption,
// delays and flaps than the controller that died.
func TestRestoreKeepsPlaneDraws(t *testing.T) {
	if got := decodePlaneFaults(restoreFixtureBytes); !reflect.DeepEqual(got, restoreFixture) {
		t.Fatalf("restoreFixtureBytes decodes to %+v, want %+v", got, restoreFixture)
	}
	orig, restored, injected := restoreThroughGob(t, restoreFixture)
	if injected != 6 {
		t.Fatalf("pool took %d of the fixture's 6 faults", injected)
	}
	checkSameDraws(t, orig, restored)

	// End to end: a one-replica pool with the two jitter faults serves
	// the same latencies after a restart as without one.
	a := newPool(t, Config{}, 1)
	for _, f := range restoreFixture.timing {
		if err := a.InjectTimingFault(0, f); err != nil {
			t.Fatal(err)
		}
	}
	b := newPool(t, Config{}, 1)
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for round := range 40 {
		ra, err := a.Run(fullMsgs(16))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run(fullMsgs(16))
		if err != nil {
			t.Fatal(err)
		}
		if ra.Latency != rb.Latency {
			t.Fatalf("round %d: restored pool latency %d, original %d", round, rb.Latency, ra.Latency)
		}
	}
}

// FuzzCheckpointPlanes holds the property behind
// TestRestoreKeepsPlaneDraws for any wire, timing and partition faults
// added in any order: after Snapshot → gob → Restore every restored
// plane draws what the original draws.
func FuzzCheckpointPlanes(f *testing.F) {
	f.Add(restoreFixtureBytes)
	f.Fuzz(func(t *testing.T, raw []byte) {
		orig, restored, _ := restoreThroughGob(t, decodePlaneFaults(raw))
		checkSameDraws(t, orig, restored)
	})
}

// TestCheckpointReplicaEveryField: a replica restored from a checkpoint
// with every field set, each scalar to a value of its own, reads back
// from Snapshot as exactly what was restored, and the snapshot is a
// copy that later changes to the live replica leave alone. A field
// restore or checkpoint skips, or a record they share with the live
// replica, fails it.
func TestCheckpointReplicaEveryField(t *testing.T) {
	p := newPool(t, Config{}, 2)
	sw := p.replicas[1].sw
	outStage := len(sw.StageChips())
	cp := p.Snapshot()
	rc := &cp.Replicas[1]
	rv := reflect.ValueOf(rc).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Field(i); {
		case rv.Type().Field(i).Name == "ID": // the replica's index, 1
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanInt():
			f.SetInt(int64(100 + i))
		case f.CanUint():
			f.SetUint(uint64(100 + i))
		}
	}
	// The records take values the restore accepts: chip faults a scan
	// localized, a quarantined output wire, valid plane faults.
	probe, err := core.NewColumnsortSwitchBeta(64, 32, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	plane := core.NewFaultPlane()
	plane.Add(core.ChipFault{Stage: 1, Chip: 0, Mode: core.ChipStuckOutput, A: 0})
	plane.Add(core.ChipFault{Stage: 1, Chip: 1, Mode: core.ChipStuckOutput, A: 1})
	if err := probe.SetFaultPlane(plane); err != nil {
		t.Fatal(err)
	}
	rep, err := health.Scan(probe)
	if err != nil || len(rep.Faults) != 2 {
		t.Fatalf("scan localized %v (%v), want two faults", rep.Faults, err)
	}
	rc.KnownFaults = rep.Faults
	wire, err := health.OutputWireFault(sw, 5)
	if err != nil {
		t.Fatal(err)
	}
	rc.WireFaults = map[int]health.LocalizedFault{5: wire}
	rc.WirePlaneFaults = []link.WireFault{{Stage: outStage, Wire: 3, Mode: link.WireStuck}}
	rc.TimingPlaneFaults = []timing.Fault{straggler(2)}
	rc.Recent = []byzantine.Claim{{Input: 7, Output: 8, Payload: []byte{1, 0}, Tag: byzantine.Tag{Epoch: 9, Seq: 10, Sum: 11}}}
	for i := 0; i < rv.NumField(); i++ {
		if name := rv.Type().Field(i).Name; name != "ID" && rv.Field(i).IsZero() {
			t.Fatalf("field %s is not set: give it a value here", name)
		}
	}

	if err := p.Restore(cp); err != nil {
		t.Fatal(err)
	}
	got := p.Snapshot()
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("snapshot differs from the restored checkpoint\n got: %+v\nwant: %+v", got.Replicas[1], cp.Replicas[1])
	}

	// The live replica owns its records: changing them moves neither
	// the checkpoint it came from nor the snapshot taken of it.
	want := p.Snapshot()
	r := p.replicas[1]
	r.KnownFaults[0].Pattern++
	r.WireFaults[5] = health.LocalizedFault{}
	r.Recent[0].Input++
	r.Trips++
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(cp, want) {
		t.Fatal("a change to the live replica reached a checkpoint")
	}

	// A record read back from a journal comes out sorted by (stage,
	// chip), whatever order it was written in.
	slices.Reverse(cp.Replicas[1].KnownFaults)
	if err := p.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := p.Snapshot().Replicas[1].KnownFaults; !reflect.DeepEqual(got, want.Replicas[1].KnownFaults) {
		t.Fatalf("restored fault record %v, want %v", got, want.Replicas[1].KnownFaults)
	}
}

// TestCheckpointReviveForgetsPlane: a replica restored with wire and
// timing planes, then killed and revived onto a fresh board, reports no
// plane in its next checkpoint. The live copy of the plane fields must
// stay zero, or the checkpoint would bring the old board back.
func TestCheckpointReviveForgetsPlane(t *testing.T) {
	p := newPool(t, Config{}, 2)
	cp := p.Snapshot()
	rc := &cp.Replicas[0]
	rc.HasWirePlane, rc.WirePlaneSeed = true, 9
	rc.WirePlaneFaults = []link.WireFault{{Stage: len(p.replicas[0].sw.StageChips()), Wire: 3, Mode: link.WireStuck}}
	rc.HasTimingPlane, rc.TimingPlaneSeed = true, 9
	rc.TimingPlaneFaults = []timing.Fault{straggler(2)}
	if err := p.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got, err := p.CheckpointReplica(0); err != nil || !got.HasWirePlane || !got.HasTimingPlane {
		t.Fatalf("restored replica's checkpoint lost its planes: %+v, %v", got, err)
	}
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Revive(0); err != nil {
		t.Fatal(err)
	}
	got, err := p.CheckpointReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasWirePlane || got.WirePlaneSeed != 0 || got.WirePlaneFaults != nil ||
		got.HasTimingPlane || got.TimingPlaneSeed != 0 || got.TimingPlaneFaults != nil {
		t.Fatalf("revived replica's checkpoint carries the old board's planes: %+v", got)
	}
}

// TestCheckpointRestoreThenEscalate: a checkpoint whose WireFaults is
// nil, as one built by hand or decoded from a nil map carries, restores
// to a replica whose link monitor can still convict a wire: the live
// record is never nil.
func TestCheckpointRestoreThenEscalate(t *testing.T) {
	p := newPool(t, Config{TripThreshold: 10}, 1)
	cp := p.Snapshot()
	cp.Replicas[0].WireFaults = nil
	if err := p.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if err := p.InjectWireFault(0, link.WireFault{
		Stage: len(p.replicas[0].sw.StageChips()), Wire: 0, Mode: link.WireStuck,
	}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 24; round++ {
		if _, err := p.Run(fullMsgs(p.Threshold())); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.LinksQuarantined != 1 {
		t.Fatalf("%d wires quarantined after restore, want 1", s.LinksQuarantined)
	}
}

// TestCheckpointRestoreIsAtomic checks that a checkpoint Restore or
// Rejoin rejects changes nothing: a checkpoint that would also move
// the round, the ledger and replica 0's state fails on replica 1's
// invalid wire fault, on an invalid partition fault, and (Rejoin) on
// an invalid timing fault, and Snapshot() afterwards equals Snapshot()
// before the call.
func TestCheckpointRestoreIsAtomic(t *testing.T) {
	p := newPool(t, Config{ProbeAfter: 1}, 2)
	for round := 0; round < 6; round++ {
		if _, err := p.Run(fullMsgs(8)); err != nil {
			t.Fatal(err)
		}
	}
	changed := func() *Checkpoint {
		cp := p.Snapshot()
		cp.Round += 50
		cp.Ledger.Delivered += 1000
		cp.Replicas[0].State = Quarantined
		cp.Replicas[0].Trips = 77
		return cp
	}
	badWire := changed()
	badWire.Replicas[1].HasWirePlane = true
	badWire.Replicas[1].WirePlaneFaults = []link.WireFault{{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: 2}}
	badCut := changed()
	badCut.HasPartitionPlane = true
	badCut.PartitionFaults = []partition.Fault{{Mode: partition.SymmetricCut, Replica: -5}}
	for _, tc := range []struct {
		name string
		cp   *Checkpoint
	}{{"invalid wire fault", badWire}, {"invalid partition fault", badCut}} {
		before := p.Snapshot()
		if err := p.Restore(tc.cp); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("Restore returned %v, want an error on the %s", err, tc.name)
		}
		if after := p.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a rejected Restore changed the pool\n got: %+v\nwant: %+v", tc.name, after, before)
		}
	}
	if err := p.Drain(1); err != nil {
		t.Fatal(err)
	}
	rcp := badWire.Replicas[1]
	rcp.HasWirePlane, rcp.WirePlaneFaults = false, nil
	rcp.Trips = 77
	rcp.HasTimingPlane = true
	rcp.TimingPlaneFaults = []timing.Fault{{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Jitter, Prob: 3}}
	before := p.Snapshot()
	if err := p.Rejoin(1, rcp); err == nil || !strings.Contains(err.Error(), "invalid timing fault") {
		t.Fatalf("Rejoin returned %v, want an error on the invalid timing fault", err)
	}
	if after := p.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Errorf("a rejected Rejoin changed the pool\n got: %+v\nwant: %+v", after, before)
	}
}

// TestCheckpointRecordsMatchFreshGob checks the journal record of every
// checkpoint runScenario's pool takes, under the legacy and the lease
// arbiter: journal.Encoder writes what a fresh gob encoder writes.
// gob orders a map's entries at random, so a checkpoint whose wire
// map holds two or more entries must match in length and decoded value
// only.
func TestCheckpointRecordsMatchFreshGob(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		seed int64
	}{{"legacy", legacyScenario, 1}, {"leased", leasedScenario, 99}} {
		var enc journal.Encoder[Checkpoint]
		round := 0
		runScenario(t, tc.cfg, tc.seed, 80, true, func(p *Pool) {
			round++
			cp := p.Snapshot()
			got, err := enc.Encode(cp)
			if err != nil {
				t.Fatalf("%s round %d: %v", tc.name, round, err)
			}
			var want bytes.Buffer
			if err := gob.NewEncoder(&want).Encode(cp); err != nil {
				t.Fatal(err)
			}
			ordered := true
			for _, r := range cp.Replicas {
				ordered = ordered && len(r.WireFaults) < 2
			}
			if bytes.Equal(got, want.Bytes()) {
				return
			}
			if ordered || len(got) != want.Len() {
				t.Fatalf("%s round %d: record differs from a fresh encoder's (%d vs %d bytes)", tc.name, round, len(got), want.Len())
			}
			var a, b Checkpoint
			if err := gob.NewDecoder(bytes.NewReader(got)).Decode(&a); err != nil {
				t.Fatal(err)
			}
			if err := gob.NewDecoder(&want).Decode(&b); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s round %d: record decodes to %+v, want %+v", tc.name, round, a, b)
			}
		})
	}
}

// TestCheckpointDecoderMatchesFreshGob reads the journal record of
// every checkpoint runScenario's pool takes, under the legacy and the
// lease arbiter, through one journal.Decoder per run: each must decode
// to what a fresh gob decoder gives.
func TestCheckpointDecoderMatchesFreshGob(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		seed int64
	}{{"legacy", legacyScenario, 1}, {"leased", leasedScenario, 99}} {
		var enc journal.Encoder[Checkpoint]
		var dec journal.Decoder[Checkpoint]
		round := 0
		runScenario(t, tc.cfg, tc.seed, 80, true, func(p *Pool) {
			round++
			rec, err := enc.Encode(p.Snapshot())
			if err != nil {
				t.Fatalf("%s round %d: %v", tc.name, round, err)
			}
			var got, want Checkpoint
			if err := dec.Decode(rec, &got); err != nil {
				t.Fatalf("%s round %d: %v", tc.name, round, err)
			}
			if err := gob.NewDecoder(bytes.NewReader(rec)).Decode(&want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: Decoder read %+v, a fresh decoder %+v", tc.name, round, got, want)
			}
		})
	}
}

package switchsim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"concentrators/internal/core"
	"concentrators/internal/journal"
	"concentrators/internal/overload"
	"concentrators/internal/seedrand"
)

// This file is the durable session runner: the same round machine as
// RunSession, driven under the journal plane. Between rounds the
// machine's complete state — ledgers, backlog, retry-budget and CoDel
// machines, and the traffic stream's position — is made durable as
// snapshot and delta records; the crash plane kills the simulated
// process at (round, phase) coordinates; and each new incarnation
// rebuilds the machine from the journal before continuing. The
// exactly-once argument, phase by phase:
//
//	round-start   — the journal is a clean prefix through round−1;
//	                recovery replays it and re-executes the round. The
//	                round ran zero times before the crash, once after.
//	mid-dispatch  — the round ran, but its delta tore mid-append.
//	                Replay discards the fragment (CRC) and recovery
//	                re-executes from the journaled pre-round position:
//	                identical draws, identical outcome, journaled once.
//	pre-ack       — the delta is durable but the client was never
//	                acked. Replay applies it exactly once (strictly
//	                increasing LSNs) and recovery resumes at the NEXT
//	                round: the round ran once, and is never re-run.
//
// Offers become external — count toward the ground-truth ledger — only
// when their round's delta commits; a torn round's offers are re-made
// identically by the re-execution, so they are counted exactly once.

// histDelta is one latency bucket's increment within a round.
type histDelta struct {
	Lat, Count int
}

// statsRec is the serializable core of SessionStats (the Integrity
// block is excluded: integrity sessions cannot be journaled).
type statsRec struct {
	Offered, Delivered, Dropped, DeadlineMissed     int
	Shed, Refused, Retries, RetriedDelivered        int
	LatencyHistogram, FirstTryLatencyHistogram      map[int]int
	RetriedLatencyHistogram, MissedLatencyHistogram map[int]int
	MaxBacklog, MaxOffered                          int
	DeliveredPerRound                               []int
}

// snapshotRec is a full checkpoint: state after rounds [0, Round), and
// in Cursor the traffic stream's position (seedrand.Stream.Pos) before
// Round.
type snapshotRec struct {
	Round     int
	Cursor    uint64
	Stats     statsRec
	RetryPool []pendingRec
	Buffered  []pendingRec
	Budget    overload.RetrySnapshot
	CoDel     overload.CoDelSnapshot
}

// deltaRec is one round's commit: the ledger increments the round
// produced, the complete post-round backlog (bounded by the input
// count — at most one waiting message per input), the control-machine
// states, and the post-round stream position.
type deltaRec struct {
	Round  int
	Cursor uint64
	// Ledger increments.
	DOffered, DDropped, DShed, DRefused, DRetries int
	// Delivery events by latency bucket, split exactly as the session
	// histograms are; Delivered/RetriedDelivered/DeadlineMissed are
	// implied by the event counts.
	FirstTry, Retried, Missed []histDelta
	DeliveredThisRound        int
	// Watermarks are absolutes (monotone, so idempotent to re-apply).
	MaxBacklog, MaxOffered int
	// Post-round backlog and control-machine state.
	RetryPool []pendingRec
	Buffered  []pendingRec
	Budget    overload.RetrySnapshot
	CoDel     overload.CoDelSnapshot
}

// backlogRecs is the journal form of the backlog. The journal keeps a
// Buffer backlog in its own Buffered field and every other policy's in
// RetryPool, each in the machine's order (ascending input for Buffer).
func (st *Session) backlogRecs() (retry, buffered []pendingRec) {
	recs := append([]pendingRec(nil), st.pending...)
	if st.cfg.Policy == Buffer {
		return nil, recs
	}
	return recs, nil
}

// restoreBacklog rebuilds the backlog from its journal form.
func (st *Session) restoreBacklog(retry, buffered []pendingRec) {
	st.pending = append(append([]pendingRec(nil), retry...), buffered...)
}

func copyHist(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// addEvent counts one event at latency lat into buckets kept sorted by
// latency.
func addEvent(h []histDelta, lat int) []histDelta {
	i, found := slices.BinarySearchFunc(h, lat, func(b histDelta, lat int) int { return cmp.Compare(b.Lat, lat) })
	if found {
		h[i].Count++
		return h
	}
	return slices.Insert(h, i, histDelta{Lat: lat, Count: 1})
}

// apply adds one round's record to the ledger. Step books every round
// it executes through it and journal replay every committed round, so
// a recovered ledger is booked exactly as a live one.
func (s *SessionStats) apply(d *deltaRec) {
	s.Offered += d.DOffered
	s.Dropped += d.DDropped
	s.Shed += d.DShed
	s.Refused += d.DRefused
	s.Retries += d.DRetries
	for _, h := range d.FirstTry {
		s.Delivered += h.Count
		s.LatencyHistogram[h.Lat] += h.Count
		s.FirstTryLatencyHistogram[h.Lat] += h.Count
	}
	for _, h := range d.Retried {
		s.Delivered += h.Count
		s.RetriedDelivered += h.Count
		s.LatencyHistogram[h.Lat] += h.Count
		s.RetriedLatencyHistogram[h.Lat] += h.Count
	}
	for _, h := range d.Missed {
		s.DeadlineMissed += h.Count
		s.MissedLatencyHistogram[h.Lat] += h.Count
	}
	s.DeliveredPerRound[d.Round] = d.DeliveredThisRound
	s.MaxBacklog = d.MaxBacklog
	s.MaxOffered = d.MaxOffered
}

// commit completes the record of the round Step just executed with the
// post-round backlog, control-machine states and stream position: the
// delta the journal writes.
func (st *Session) commit(cursor uint64) *deltaRec {
	d := &st.rec
	d.Cursor = cursor
	d.RetryPool, d.Buffered = st.backlogRecs()
	if st.budget != nil {
		d.Budget = st.budget.Snapshot()
	}
	if st.codel != nil {
		d.CoDel = st.codel.Snapshot()
	}
	return d
}

// applyDelta replays one committed round onto the recovering state.
// The round number must be exactly the next round the state expects —
// the strictly-increasing-LSN replay makes duplicates impossible, and
// this check makes the exactly-once application explicit.
func (st *Session) applyDelta(d *deltaRec) error {
	if d.Round != st.round {
		return fmt.Errorf("switchsim: journal replay expected round %d, found delta for round %d", st.round, d.Round)
	}
	if d.Round >= len(st.stats.DeliveredPerRound) {
		return fmt.Errorf("switchsim: journal delta for round %d beyond session's %d rounds", d.Round, len(st.stats.DeliveredPerRound))
	}
	st.stats.apply(d)
	st.restoreBacklog(d.RetryPool, d.Buffered)
	if st.budget != nil {
		st.budget.Restore(d.Budget)
	}
	if st.codel != nil {
		st.codel.Restore(d.CoDel)
	}
	st.round = d.Round + 1
	return nil
}

// snapshot captures the full checkpoint.
func (st *Session) snapshot(cursor uint64) *snapshotRec {
	s := st.stats
	sn := &snapshotRec{
		Round:  st.round,
		Cursor: cursor,
		Stats: statsRec{
			Offered: s.Offered, Delivered: s.Delivered, Dropped: s.Dropped,
			DeadlineMissed: s.DeadlineMissed, Shed: s.Shed, Refused: s.Refused,
			Retries: s.Retries, RetriedDelivered: s.RetriedDelivered,
			LatencyHistogram:         copyHist(s.LatencyHistogram),
			FirstTryLatencyHistogram: copyHist(s.FirstTryLatencyHistogram),
			RetriedLatencyHistogram:  copyHist(s.RetriedLatencyHistogram),
			MissedLatencyHistogram:   copyHist(s.MissedLatencyHistogram),
			MaxBacklog:               s.MaxBacklog,
			MaxOffered:               s.MaxOffered,
			DeliveredPerRound:        append([]int(nil), s.DeliveredPerRound...),
		},
	}
	sn.RetryPool, sn.Buffered = st.backlogRecs()
	if st.budget != nil {
		sn.Budget = st.budget.Snapshot()
	}
	if st.codel != nil {
		sn.CoDel = st.codel.Snapshot()
	}
	return sn
}

// restoreSnapshot overwrites the freshly built state with a journaled
// checkpoint.
func (st *Session) restoreSnapshot(sn *snapshotRec) error {
	if sn.Round < 0 || sn.Round > len(st.stats.DeliveredPerRound) {
		return fmt.Errorf("switchsim: journal snapshot at round %d outside session's %d rounds", sn.Round, len(st.stats.DeliveredPerRound))
	}
	r := sn.Stats
	s := st.stats
	s.Offered, s.Delivered, s.Dropped = r.Offered, r.Delivered, r.Dropped
	s.DeadlineMissed, s.Shed, s.Refused = r.DeadlineMissed, r.Shed, r.Refused
	s.Retries, s.RetriedDelivered = r.Retries, r.RetriedDelivered
	s.LatencyHistogram = copyHist(r.LatencyHistogram)
	s.FirstTryLatencyHistogram = copyHist(r.FirstTryLatencyHistogram)
	s.RetriedLatencyHistogram = copyHist(r.RetriedLatencyHistogram)
	s.MissedLatencyHistogram = copyHist(r.MissedLatencyHistogram)
	s.MaxBacklog, s.MaxOffered = r.MaxBacklog, r.MaxOffered
	copy(s.DeliveredPerRound, r.DeliveredPerRound)
	st.restoreBacklog(sn.RetryPool, sn.Buffered)
	if st.budget != nil {
		st.budget.Restore(sn.Budget)
	}
	if st.codel != nil {
		st.codel.Restore(sn.CoDel)
	}
	st.round = sn.Round
	return nil
}

// RunDurableSession runs the session under the durability plane: state
// journaled between rounds, the crash plane killing the process at its
// scheduled (round, phase) coordinates, and each restart recovering
// from the journal. With jcfg.Unjournaled the crash plane stays live
// but nothing is durable — the experimental control: every kill then
// forgets the ledger and the backlog, and RecoveryStats reports how
// much was lost. Traffic draws RunSession's stream, so without crashes
// the stats equal RunSession's, journaled or not.
//
// The journal store lives across incarnations (it models the disk);
// everything else — state machine, RNG, in-flight round — dies with
// the process. The returned stats come from the final incarnation;
// RecoveryStats carries the durability observability, including the
// harness-side TrueOffered ground truth the ledger is audited against.
func RunDurableSession(sw core.Concentrator, cfg SessionConfig, jcfg journal.Config) (*SessionStats, *journal.RecoveryStats, error) {
	return runDurableSession(sw, cfg, jcfg, journal.NewMemStore())
}

// runDurableSession is RunDurableSession over the given empty store.
func runDurableSession(sw core.Concentrator, cfg SessionConfig, jcfg journal.Config, store *journal.MemStore) (*SessionStats, *journal.RecoveryStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Integrity != nil {
		return nil, nil, fmt.Errorf("switchsim: integrity sessions cannot be journaled (per-link ARQ window state is not serializable)")
	}
	if err := jcfg.Validate(); err != nil {
		return nil, nil, err
	}
	jcfg = jcfg.WithDefaults()

	// One encoder and one decoder per record type for the whole run;
	// each encoder creates its gob encoder at its type's first record
	// (see journal.Encoder).
	var snapEnc journal.Encoder[snapshotRec]
	var deltaEnc journal.Encoder[deltaRec]
	var snapDec journal.Decoder[snapshotRec]
	var deltaDec journal.Decoder[deltaRec]
	rec := &journal.RecoveryStats{Incarnations: 1}
	// Each fault kills at most once per run (see journal.Plane).
	var faults []journal.CrashFault
	if jcfg.Crash != nil {
		faults = jcfg.Crash.Faults()
	}
	fired := make([]bool, len(faults))
	crashAt := func(round int, phase journal.Phase) (journal.CrashFault, bool) {
		for i, f := range faults {
			if !fired[i] && f.Round == round && f.Phase == phase {
				fired[i] = true
				return f, true
			}
		}
		return journal.CrashFault{}, false
	}
	resumeRound := 0 // unjournaled restarts: the wall-clock round keeps ticking
	incarnation := 0

	for {
		// ---- boot (or reboot) one incarnation ----
		st, err := NewSession(sw, cfg, cfg.AckDelay)
		if err != nil {
			return nil, nil, err
		}
		// Traffic draws RunSession's math/rand stream for the seed, from
		// a Stream whose position the journal keeps.
		seed := cfg.Seed
		if jcfg.Unjournaled && incarnation > 0 {
			// Stateless restart: ledger and backlog are gone; traffic
			// resumes at the wall round on a fresh stream (the dead
			// incarnation's position died with it).
			seed ^= int64(seedrand.Mix64(uint64(incarnation)))
		}
		stream := seedrand.NewStream(seed)
		rng := rand.New(&stream)
		var w *journal.Writer
		if jcfg.Unjournaled {
			st.round = resumeRound
		} else {
			var res *journal.ReplayResult
			w, res = journal.NewWriter(store) // drops the torn tail, resumes the LSN sequence
			if res.TornBytes > 0 {
				rec.TornTails++
				rec.TornBytesDiscarded += res.TornBytes
			}
			start, pos := 0, uint64(0)
			if res.SnapshotIndex >= 0 {
				var sn snapshotRec
				if err := snapDec.Decode(res.Records[res.SnapshotIndex].Payload, &sn); err != nil {
					return nil, nil, err
				}
				if err := st.restoreSnapshot(&sn); err != nil {
					return nil, nil, err
				}
				pos = sn.Cursor
				if incarnation > 0 {
					rec.SnapshotsRestored++
				}
				start = res.SnapshotIndex + 1
			}
			for _, r := range res.Records[start:] {
				if r.Kind != journal.KindDelta {
					continue
				}
				var d deltaRec
				if err := deltaDec.Decode(r.Payload, &d); err != nil {
					return nil, nil, err
				}
				if err := st.applyDelta(&d); err != nil {
					return nil, nil, err
				}
				pos = d.Cursor
				if incarnation > 0 {
					rec.RecordsReplayed++
				}
			}
			stream.Seek(pos)
		}

		// ---- round loop ----
		crashed := false
		for st.round < cfg.Rounds {
			round := st.round

			if w != nil && round > 0 && round%jcfg.SnapshotEvery == 0 {
				sn, err := snapEnc.Encode(st.snapshot(stream.Pos()))
				if err != nil {
					return nil, nil, err
				}
				if jcfg.Compact {
					// The snapshot subsumes every record before it:
					// compact the log down to just the checkpoint.
					store.Truncate(0)
				}
				w.Append(journal.KindSnapshot, sn)
				rec.SnapshotsWritten++
			}

			if _, ok := crashAt(round, journal.PhaseRoundStart); ok {
				// Dies before the round executes; nothing external
				// happened, nothing needs forgetting — except in the
				// unjournaled control, where the restart loses the
				// whole in-memory world.
				crashed = true
				if jcfg.Unjournaled {
					rec.BacklogLostAtCrash += st.backlog()
					rec.LedgerLostAtCrash += st.stats.Offered
					resumeRound = round
				}
				break
			}

			if _, _, err := st.Step(sw, rng); err != nil {
				return nil, nil, err
			}
			freshOffers := st.rec.DOffered

			if jcfg.Unjournaled {
				// No commit protocol: the round's effects are external
				// the moment it runs.
				rec.TrueOffered += freshOffers
				_, midKill := crashAt(round, journal.PhaseMidDispatch)
				_, ackKill := crashAt(round, journal.PhasePreAck)
				if midKill || ackKill {
					crashed = true
					rec.BacklogLostAtCrash += st.backlog()
					rec.LedgerLostAtCrash += st.stats.Offered
					resumeRound = st.round
					break
				}
				continue
			}

			payload, err := deltaEnc.Encode(st.commit(stream.Pos()))
			if err != nil {
				return nil, nil, err
			}
			if f, ok := crashAt(round, journal.PhaseMidDispatch); ok {
				// Dies mid-append: only TornFrac of the frame reaches
				// the store. The commit tore, so the round's offers
				// never became external — the recovered incarnation
				// re-executes them identically and commits them once.
				keep := int(f.TornFrac * float64(len(payload)+journal.FrameOverhead))
				w.AppendTorn(journal.KindDelta, payload, keep)
				rec.RoundsReexecuted++
				crashed = true
				break
			}
			w.Append(journal.KindDelta, payload)
			rec.DeltasWritten++
			rec.TrueOffered += freshOffers // the commit makes them external
			if _, ok := crashAt(round, journal.PhasePreAck); ok {
				// Durable but unacked: recovery must apply the record
				// exactly once and must not re-execute the round.
				crashed = true
				break
			}
		}

		if !crashed {
			rec.JournalBytes = store.Size()
			return st.Finish(), rec, nil
		}
		rec.Crashes++
		rec.Incarnations++
		incarnation++
	}
}

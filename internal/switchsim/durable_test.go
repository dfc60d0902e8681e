package switchsim

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"concentrators/internal/journal"
	"concentrators/internal/overload"
)

// durableConfigs are the session shapes the crash properties run over:
// every policy with a backlog, plus the overload machinery the journal
// must carry (retry budget, CoDel, deadline budget).
func durableConfigs(seed int64) map[string]SessionConfig {
	return map[string]SessionConfig{
		"resend-full": {
			Policy: Resend, Load: 0.8, Rounds: 60, PayloadBits: 4, Seed: seed,
			AckDelay: 1, Deadline: 12,
			RetryBudget: &overload.RetryConfig{Budget: 0.5},
			CoDel:       &overload.CoDelConfig{Target: 3, Interval: 9},
		},
		"buffer-codel": {
			Policy: Buffer, Load: 0.7, Rounds: 60, PayloadBits: 4, Seed: seed,
			CoDel: &overload.CoDelConfig{Target: 2, Interval: 8},
		},
		"misroute": {
			Policy: Misroute, Load: 0.6, Rounds: 60, PayloadBits: 4, Seed: seed,
		},
		"drop": {
			Policy: Drop, Load: 0.9, Rounds: 60, PayloadBits: 4, Seed: seed,
		},
	}
}

func checkConservation(t *testing.T, label string, stats *SessionStats) {
	t.Helper()
	got := stats.Delivered + stats.Dropped + stats.CorruptedDropped +
		stats.DeadlineMissed + stats.Shed + stats.FinalBacklog
	if stats.Offered != got {
		t.Errorf("%s: conservation violated: offered %d != delivered %d + dropped %d + corrupted %d + missed %d + shed %d + backlog %d",
			label, stats.Offered, stats.Delivered, stats.Dropped, stats.CorruptedDropped,
			stats.DeadlineMissed, stats.Shed, stats.FinalBacklog)
	}
}

// TestDurableCrashRecoveryMatchesControl is the tentpole property: for
// every seeded crash schedule — kills at round-start, mid-dispatch
// (torn journal tails), and pre-ack — the recovered session's ledger
// is IDENTICAL to an uncrashed control's, the six-term conservation
// law holds summed across incarnations, and the ledger matches the
// harness-side TrueOffered ground truth.
func TestDurableCrashRecoveryMatchesControl(t *testing.T) {
	sw := smallSwitch(t)
	for _, seed := range []int64{1, 2, 3} {
		for name, cfg := range durableConfigs(seed) {
			crash := journal.GenerateCrashSchedule(seed, cfg.Rounds, 5)
			if crash.Len() != 5 {
				t.Fatalf("seed %d: schedule has %d kills, want 5", seed, crash.Len())
			}

			control, ctlRec, err := RunDurableSession(sw, cfg, journal.Config{})
			if err != nil {
				t.Fatalf("seed %d %s: control: %v", seed, name, err)
			}
			if ctlRec.Crashes != 0 || ctlRec.Incarnations != 1 {
				t.Fatalf("seed %d %s: control crashed: %+v", seed, name, ctlRec)
			}

			stats, rec, err := RunDurableSession(sw, cfg, journal.Config{SnapshotEvery: 16, Crash: crash})
			if err != nil {
				t.Fatalf("seed %d %s: crashed run: %v", seed, name, err)
			}
			label := name + "/journaled"
			if rec.Crashes != 5 || rec.Incarnations != 6 {
				t.Errorf("seed %d %s: %d crashes over %d incarnations, want 5 over 6",
					seed, label, rec.Crashes, rec.Incarnations)
			}
			checkConservation(t, label, stats)
			if stats.Offered != rec.TrueOffered {
				t.Errorf("seed %d %s: recovered ledger offered %d != harness ground truth %d",
					seed, label, stats.Offered, rec.TrueOffered)
			}
			if !reflect.DeepEqual(stats, control) {
				t.Errorf("seed %d %s: recovered stats differ from uncrashed control\n got: %+v\nwant: %+v",
					seed, label, stats, control)
			}
			// The schedule's mid-dispatch kills must actually have torn
			// the journal, and the tears must have been discarded.
			tears := 0
			for _, f := range crash.Faults() {
				if f.Phase == journal.PhaseMidDispatch {
					tears++
				}
			}
			if rec.TornTails != tears || rec.RoundsReexecuted != tears {
				t.Errorf("seed %d %s: %d torn tails and %d re-executions, want %d each",
					seed, label, rec.TornTails, rec.RoundsReexecuted, tears)
			}
			if tears > 0 && rec.TornBytesDiscarded == 0 {
				t.Errorf("seed %d %s: torn tails discarded zero bytes", seed, label)
			}
		}
	}
}

// TestDurableEachPhaseExplicit pins the three recovery paths one at a
// time, so a regression in any single phase is attributed precisely.
func TestDurableEachPhaseExplicit(t *testing.T) {
	sw := smallSwitch(t)
	cfg := durableConfigs(7)["resend-full"]
	control, _, err := RunDurableSession(sw, cfg, journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fault journal.CrashFault
	}{
		{"round-start", journal.CrashFault{Round: 9, Phase: journal.PhaseRoundStart}},
		{"mid-dispatch-small-tear", journal.CrashFault{Round: 9, Phase: journal.PhaseMidDispatch, TornFrac: 0.05}},
		{"mid-dispatch-near-whole", journal.CrashFault{Round: 9, Phase: journal.PhaseMidDispatch, TornFrac: 0.99}},
		{"pre-ack", journal.CrashFault{Round: 9, Phase: journal.PhasePreAck}},
		{"pre-ack-final-round", journal.CrashFault{Round: cfg.Rounds - 1, Phase: journal.PhasePreAck}},
		{"round-start-on-snapshot-round", journal.CrashFault{Round: 16, Phase: journal.PhaseRoundStart}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			crash := journal.NewCrashPlane(7)
			if err := crash.Add(tc.fault); err != nil {
				t.Fatal(err)
			}
			stats, rec, err := RunDurableSession(sw, cfg, journal.Config{SnapshotEvery: 16, Crash: crash})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Crashes != 1 {
				t.Fatalf("fired %d crashes, want 1", rec.Crashes)
			}
			if !reflect.DeepEqual(stats, control) {
				t.Errorf("recovered stats differ from control\n got: %+v\nwant: %+v", stats, control)
			}
			wantReexec := 0
			if tc.fault.Phase == journal.PhaseMidDispatch {
				wantReexec = 1
			}
			if rec.RoundsReexecuted != wantReexec {
				t.Errorf("re-executed %d rounds, want %d (phase %v)", rec.RoundsReexecuted, wantReexec, tc.fault.Phase)
			}
		})
	}
}

// TestDurableCompaction checks that snapshot compaction preserves the
// ledger exactly while keeping the journal O(state) instead of
// O(rounds).
func TestDurableCompaction(t *testing.T) {
	sw := smallSwitch(t)
	cfg := durableConfigs(11)["resend-full"]
	cfg.Rounds = 120
	crash := journal.GenerateCrashSchedule(11, cfg.Rounds, 4)

	full, fullRec, err := RunDurableSession(sw, cfg, journal.Config{SnapshotEvery: 8, Crash: crash})
	if err != nil {
		t.Fatal(err)
	}
	compact, compactRec, err := RunDurableSession(sw, cfg, journal.Config{SnapshotEvery: 8, Compact: true, Crash: crash})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, compact) {
		t.Errorf("compaction changed the ledger\n got: %+v\nwant: %+v", compact, full)
	}
	if compactRec.JournalBytes >= fullRec.JournalBytes {
		t.Errorf("compacted journal %d bytes, full journal %d — compaction saved nothing",
			compactRec.JournalBytes, fullRec.JournalBytes)
	}
}

// TestDurableConfigReusable runs each journal.Config twice: the run,
// not the crash plane, keeps the set of fired faults, so the second run
// fires the whole schedule again and matches the first exactly.
func TestDurableConfigReusable(t *testing.T) {
	sw := smallSwitch(t)
	cfg := durableConfigs(5)["resend-full"]
	for _, jcfg := range []journal.Config{
		{SnapshotEvery: 16, Crash: journal.GenerateCrashSchedule(5, cfg.Rounds, 3)},
		{Unjournaled: true, Crash: journal.GenerateCrashSchedule(5, cfg.Rounds, 3)},
	} {
		first, firstRec, err := RunDurableSession(sw, cfg, jcfg)
		if err != nil {
			t.Fatal(err)
		}
		second, secondRec, err := RunDurableSession(sw, cfg, jcfg)
		if err != nil {
			t.Fatal(err)
		}
		if firstRec.Crashes != 3 || secondRec.Crashes != 3 {
			t.Errorf("unjournaled=%v: runs fired %d and %d crashes, want 3 each", jcfg.Unjournaled, firstRec.Crashes, secondRec.Crashes)
		}
		if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(firstRec, secondRec) {
			t.Errorf("unjournaled=%v: the second run of one config differs\n got: %+v %+v\nwant: %+v %+v",
				jcfg.Unjournaled, second, secondRec, first, firstRec)
		}
	}
}

// TestUnjournaledControlLosesState is the experimental control the
// acceptance criteria demand: with the journal disabled the same crash
// schedule demonstrably loses backlog and ledger — the recovered run
// can no longer account for the ground-truth offered count.
func TestUnjournaledControlLosesState(t *testing.T) {
	sw := smallSwitch(t)
	lostSomething := false
	for _, seed := range []int64{1, 2, 3} {
		cfg := durableConfigs(seed)["resend-full"]
		crash := journal.GenerateCrashSchedule(seed, cfg.Rounds, 5)
		stats, rec, err := RunDurableSession(sw, cfg, journal.Config{Unjournaled: true, Crash: crash})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Crashes != 5 {
			t.Fatalf("seed %d: fired %d crashes, want 5", seed, rec.Crashes)
		}
		if rec.LedgerLostAtCrash > 0 || rec.BacklogLostAtCrash > 0 {
			lostSomething = true
		}
		// The surviving ledger only covers the final incarnation's
		// window: it must fall short of the ground truth by exactly
		// what the crashes destroyed.
		if stats.Offered+rec.LedgerLostAtCrash != rec.TrueOffered {
			t.Errorf("seed %d: unjournaled ledger %d + lost %d != true offered %d",
				seed, stats.Offered, rec.LedgerLostAtCrash, rec.TrueOffered)
		}
		if stats.Offered >= rec.TrueOffered {
			t.Errorf("seed %d: unjournaled run lost nothing (offered %d, true %d) — crashes did not bite",
				seed, stats.Offered, rec.TrueOffered)
		}
	}
	if !lostSomething {
		t.Error("no seed lost ledger or backlog — the control proves nothing")
	}
}

// TestDurableNoCrashEqualsRunSession checks that the durable runner is
// RunSession with the journal on: without crashes, journaled,
// unjournaled or compacted, its stats are RunSession's, JSON for JSON,
// for every policy under each overload layer it can carry.
func TestDurableNoCrashEqualsRunSession(t *testing.T) {
	sw := smallSwitch(t)
	layers := map[string]func(*SessionConfig){
		"none":     func(*SessionConfig) {},
		"codel":    func(c *SessionConfig) { c.CoDel = &overload.CoDelConfig{Target: 2, Interval: 6} },
		"budget":   func(c *SessionConfig) { c.RetryBudget = &overload.RetryConfig{Budget: 0.3} },
		"deadline": func(c *SessionConfig) { c.Deadline = 3 },
		"surge": func(c *SessionConfig) {
			c.Surge = overload.NewPlane(c.Seed)
			if err := c.Surge.Add(overload.Fault{Mode: overload.Flash, Factor: 3, Prob: 0.4}); err != nil {
				t.Fatal(err)
			}
		},
	}
	modes := map[string]journal.Config{
		"journaled":   {},
		"unjournaled": {Unjournaled: true},
		"compacted":   {SnapshotEvery: 5, Compact: true},
	}
	runs := 0
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, pol := range []Policy{Drop, Resend, Buffer, Misroute} {
			for layer, add := range layers {
				cfg := SessionConfig{Policy: pol, Load: 0.7, Rounds: 40, PayloadBits: 4, Seed: seed}
				if pol == Resend {
					cfg.AckDelay = 1
				}
				add(&cfg)
				if cfg.Validate() != nil {
					continue // a layer this policy cannot carry
				}
				want, err := RunSession(sw, cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed %d %s/%s", seed, pol, layer)
				checkConservation(t, label, want)
				if want.Offered == 0 {
					t.Errorf("%s: no traffic generated", label)
				}
				for r, d := range want.DeliveredPerRound {
					if d > sw.Outputs() {
						t.Errorf("%s: round %d delivered %d > %d outputs", label, r, d, sw.Outputs())
					}
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				for mode, jcfg := range modes {
					got, rec, err := RunDurableSession(sw, cfg, jcfg)
					if err != nil {
						t.Fatalf("%s/%s: %v", label, mode, err)
					}
					gotJSON, err := json.Marshal(got)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotJSON, wantJSON) {
						t.Errorf("%s/%s: durable stats differ from RunSession's\n got: %s\nwant: %s", label, mode, gotJSON, wantJSON)
					}
					if !jcfg.Unjournaled && rec.DeltasWritten != cfg.Rounds {
						t.Errorf("%s/%s: %d deltas for %d rounds", label, mode, rec.DeltasWritten, cfg.Rounds)
					}
					runs++
				}
			}
		}
	}
	if runs != 4*15*3 {
		t.Errorf("compared %d runs, want %d", runs, 4*15*3)
	}
}

func TestDurableRejectsIntegrity(t *testing.T) {
	sw := smallSwitch(t)
	cfg := SessionConfig{
		Policy: Resend, Load: 0.5, Rounds: 10, PayloadBits: 8, AckDelay: 1,
		Integrity: &IntegrityConfig{},
	}
	_, _, err := RunDurableSession(sw, cfg, journal.Config{})
	if err == nil || !strings.Contains(err.Error(), "cannot be journaled") {
		t.Fatalf("integrity session not rejected: %v", err)
	}
}

func TestDurableRejectsBadConfigs(t *testing.T) {
	sw := smallSwitch(t)
	good := SessionConfig{Policy: Drop, Load: 0.5, Rounds: 10, PayloadBits: 4}
	if _, _, err := RunDurableSession(sw, good, journal.Config{SnapshotEvery: -2}); err == nil {
		t.Error("negative snapshot interval accepted")
	}
	bad := good
	bad.Rounds = 0
	if _, _, err := RunDurableSession(sw, bad, journal.Config{}); err == nil {
		t.Error("invalid session config accepted")
	}
}

// TestJournalBacklogLayout pins the journal form of the one backlog:
// a Buffer backlog is written under Buffered in ascending input order,
// every other policy's under RetryPool, and restoring that form
// rebuilds the backlog record for record.
func TestJournalBacklogLayout(t *testing.T) {
	sw := smallSwitch(t)
	for name, cfg := range durableConfigs(4) {
		st, err := NewSession(sw, cfg, cfg.AckDelay)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		peak := 0
		for st.round < cfg.Rounds {
			if _, _, err := st.Step(sw, rng); err != nil {
				t.Fatal(err)
			}
			retry, buffered := st.backlogRecs()
			recs := retry
			if cfg.Policy == Buffer {
				recs = buffered
				if len(retry) != 0 {
					t.Fatalf("%s round %d: Buffer backlog written under RetryPool", name, st.round)
				}
				for i := 1; i < len(buffered); i++ {
					if buffered[i-1].Input >= buffered[i].Input {
						t.Fatalf("%s round %d: Buffered inputs not ascending: %+v", name, st.round, buffered)
					}
				}
			} else if len(buffered) != 0 {
				t.Fatalf("%s round %d: %s backlog written under Buffered", name, st.round, cfg.Policy)
			}
			if len(recs) != st.backlog() {
				t.Fatalf("%s round %d: %d records for a backlog of %d", name, st.round, len(recs), st.backlog())
			}
			peak = max(peak, len(recs))
			back := &Session{cfg: cfg}
			back.restoreBacklog(retry, buffered)
			r2, b2 := back.backlogRecs()
			if !reflect.DeepEqual(r2, retry) || !reflect.DeepEqual(b2, buffered) {
				t.Fatalf("%s round %d: restore changed the backlog records", name, st.round)
			}
		}
		if cfg.Policy != Drop && peak == 0 {
			t.Errorf("%s: no backlog ever formed; the layout is untested", name)
		}
	}
}

// TestDurableRecordsMatchFreshGob checks every record a crashed durable
// session leaves in its journal, snapshots and deltas alike: a fresh
// gob encoder given the record's decoded value writes the record's
// bytes, so journal.Encoder wrote what a fresh encoder per record
// would have. gob orders a map's entries at random, so a snapshot
// whose histograms hold two or more buckets must match in length and
// decoded value only.
func TestDurableRecordsMatchFreshGob(t *testing.T) {
	cfg := durableConfigs(1)["resend-full"]
	jcfg := journal.Config{SnapshotEvery: 8, Crash: journal.GenerateCrashSchedule(1, cfg.Rounds, 5)}
	store := journal.NewMemStore()
	_, rec, err := runDurableSession(smallSwitch(t), cfg, jcfg, store)
	if err != nil {
		t.Fatal(err)
	}
	res := journal.Replay(store.Bytes())
	snaps, deltas := 0, 0
	for i, r := range res.Records {
		var want bytes.Buffer
		exact := true
		var same func() bool
		switch r.Kind {
		case journal.KindSnapshot:
			snaps++
			var sn snapshotRec
			if err := gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&sn); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if err := gob.NewEncoder(&want).Encode(&sn); err != nil {
				t.Fatal(err)
			}
			s := sn.Stats
			for _, h := range []map[int]int{s.LatencyHistogram, s.FirstTryLatencyHistogram, s.RetriedLatencyHistogram, s.MissedLatencyHistogram} {
				exact = exact && len(h) < 2
			}
			same = func() bool {
				var back snapshotRec
				return gob.NewDecoder(bytes.NewReader(want.Bytes())).Decode(&back) == nil && reflect.DeepEqual(back, sn)
			}
		case journal.KindDelta:
			deltas++
			var d deltaRec
			if err := gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&d); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if err := gob.NewEncoder(&want).Encode(&d); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("record %d: kind %d", i, r.Kind)
		}
		if bytes.Equal(r.Payload, want.Bytes()) {
			continue
		}
		if exact || len(r.Payload) != want.Len() || !same() {
			t.Errorf("record %d (kind %d): differs from a fresh encoder's (%d vs %d bytes)", i, r.Kind, len(r.Payload), want.Len())
		}
	}
	if rec.Crashes == 0 || snaps == 0 || deltas == 0 {
		t.Fatalf("journal covers %d crashes, %d snapshots, %d deltas; want each > 0", rec.Crashes, snaps, deltas)
	}
}

// TestDurableDecoderMatchesFreshGob reads every record a crashed
// durable session leaves in its journal through one journal.Decoder
// per record type, as recovery does: each must decode to what a fresh
// gob decoder gives.
func TestDurableDecoderMatchesFreshGob(t *testing.T) {
	cfg := durableConfigs(1)["resend-full"]
	jcfg := journal.Config{SnapshotEvery: 8, Crash: journal.GenerateCrashSchedule(1, cfg.Rounds, 5)}
	store := journal.NewMemStore()
	if _, _, err := runDurableSession(smallSwitch(t), cfg, jcfg, store); err != nil {
		t.Fatal(err)
	}
	var snapDec journal.Decoder[snapshotRec]
	var deltaDec journal.Decoder[deltaRec]
	snaps, deltas := 0, 0
	for i, r := range journal.Replay(store.Bytes()).Records {
		var err error
		var got, want any
		switch r.Kind {
		case journal.KindSnapshot:
			snaps++
			var a, b snapshotRec
			err = errors.Join(snapDec.Decode(r.Payload, &a), gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&b))
			got, want = a, b
		case journal.KindDelta:
			deltas++
			var a, b deltaRec
			err = errors.Join(deltaDec.Decode(r.Payload, &a), gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&b))
			got, want = a, b
		default:
			t.Fatalf("record %d: kind %d", i, r.Kind)
		}
		if err != nil {
			t.Fatalf("record %d (kind %d): %v", i, r.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d (kind %d): Decoder read %+v, a fresh decoder %+v", i, r.Kind, got, want)
		}
	}
	if snaps < 2 || deltas < 2 {
		t.Fatalf("journal holds %d snapshots and %d deltas; want at least 2 of each", snaps, deltas)
	}
}

package journal

import (
	"bytes"
	"math"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	store := NewMemStore()
	w, _ := NewWriter(store)
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-delta"), bytes.Repeat([]byte{0xFF}, 300)}
	kinds := []byte{KindSnapshot, KindDelta, KindDelta, KindSnapshot}
	for i, pl := range payloads {
		if lsn := w.Append(kinds[i], pl); lsn != uint64(i+1) {
			t.Fatalf("append %d: lsn %d", i, lsn)
		}
	}
	res := Replay(store.Bytes())
	if res.TornBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", res.TornBytes)
	}
	if len(res.Records) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(res.Records), len(payloads))
	}
	for i, rec := range res.Records {
		if rec.Kind != kinds[i] || !bytes.Equal(rec.Payload, payloads[i]) || rec.LSN != uint64(i+1) {
			t.Fatalf("record %d mismatch: %+v", i, rec)
		}
		// A payload views the log, capped so an append to it cannot
		// overwrite the next frame.
		if cap(rec.Payload) != len(rec.Payload) {
			t.Fatalf("record %d: payload len %d cap %d, want capped", i, len(rec.Payload), cap(rec.Payload))
		}
	}
	if res.SnapshotIndex != 3 {
		t.Fatalf("snapshot index %d, want 3", res.SnapshotIndex)
	}
}

// TestTornTailEveryTruncation checks the WAL's core guarantee: for a
// log of whole records, truncating at ANY byte offset yields a clean
// record prefix — never a corrupt record, never a record invented out
// of the tail.
func TestTornTailEveryTruncation(t *testing.T) {
	store := NewMemStore()
	w, _ := NewWriter(store)
	var bounds []int // byte offset after each record
	for i := 0; i < 8; i++ {
		w.Append(KindDelta, bytes.Repeat([]byte{byte(i)}, 5+i*3))
		bounds = append(bounds, store.Size())
	}
	full := store.Bytes()
	for cut := 0; cut <= len(full); cut++ {
		res := Replay(full[:cut])
		// The decodable prefix is however many whole records fit.
		want := 0
		for _, b := range bounds {
			if b <= cut {
				want++
			}
		}
		if len(res.Records) != want {
			t.Fatalf("cut %d: %d records, want %d", cut, len(res.Records), want)
		}
		wholeBytes := 0
		if want > 0 {
			wholeBytes = bounds[want-1]
		}
		if res.TornBytes != cut-wholeBytes {
			t.Fatalf("cut %d: torn %d, want %d", cut, res.TornBytes, cut-wholeBytes)
		}
	}
}

func TestAppendTornThenRecoverResumesLSN(t *testing.T) {
	store := NewMemStore()
	w, _ := NewWriter(store)
	w.Append(KindDelta, []byte("whole-1"))
	w.AppendTorn(KindDelta, []byte("torn-away"), 7)
	// The next incarnation opens the same store and gets the replay it
	// scanned, torn tail included.
	w2, opened := NewWriter(store)
	if len(opened.Records) != 1 || string(opened.Records[0].Payload) != "whole-1" || opened.TornBytes != 7 {
		t.Fatalf("reopen replayed %d records, %d torn bytes; want 1 and 7", len(opened.Records), opened.TornBytes)
	}
	res := Replay(store.Bytes())
	if len(res.Records) != 1 || res.TornBytes != 0 {
		t.Fatalf("recovery: %d records, %d torn bytes (writer should have dropped the tail)", len(res.Records), res.TornBytes)
	}
	if lsn := w2.Append(KindDelta, []byte("whole-2")); lsn != 2 {
		t.Fatalf("resumed LSN %d, want 2", lsn)
	}
	res = Replay(store.Bytes())
	if len(res.Records) != 2 || string(res.Records[1].Payload) != "whole-2" {
		t.Fatalf("post-recovery log wrong: %+v", res.Records)
	}
}

// TestTornFirstRecordDropped tears the journal's very first record: the
// next incarnation's writer must drop the fragment, or replay stops at
// it and never sees the records appended after it.
func TestTornFirstRecordDropped(t *testing.T) {
	store := NewMemStore()
	first, _ := NewWriter(store)
	first.AppendTorn(KindDelta, []byte("torn-away"), 7)
	w, _ := NewWriter(store)
	if store.Size() != 0 {
		t.Fatalf("recovery kept %d bytes of a torn first record", store.Size())
	}
	if lsn := w.Append(KindDelta, []byte("whole-1")); lsn != 1 {
		t.Fatalf("resumed LSN %d, want 1", lsn)
	}
	if res := Replay(store.Bytes()); len(res.Records) != 1 || res.TornBytes != 0 {
		t.Fatalf("post-recovery log: %d records, %d torn bytes; want 1 and 0", len(res.Records), res.TornBytes)
	}
}

func TestReplayStopsAtNonMonotonicLSN(t *testing.T) {
	a := EncodeFrame(KindDelta, 5, []byte("five"))
	b := EncodeFrame(KindDelta, 5, []byte("five-again")) // duplicate LSN
	res := Replay(append(append([]byte{}, a...), b...))
	if len(res.Records) != 1 {
		t.Fatalf("duplicate LSN replayed: %d records", len(res.Records))
	}
	if res.TornBytes != len(b) {
		t.Fatalf("torn bytes %d, want %d", res.TornBytes, len(b))
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative snapshot interval", Config{SnapshotEvery: -1}, "journal: negative snapshot interval -1"},
		{"ok", Config{SnapshotEvery: 4}, ""},
		{"ok zero", Config{}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
	if got := (Config{}).WithDefaults().SnapshotEvery; got != 16 {
		t.Fatalf("default snapshot interval %d, want 16", got)
	}
}

func TestCrashFaultValidate(t *testing.T) {
	cases := []struct {
		name string
		f    CrashFault
		want string
	}{
		{"negative round", CrashFault{Round: -3}, "journal: negative crash round in crash@-3 round-start"},
		{"unknown phase", CrashFault{Round: 1, Phase: Phase(9)}, "journal: unknown crash phase in crash@1 Phase(9)"},
		{"nan torn frac", CrashFault{Round: 1, Phase: PhaseMidDispatch, TornFrac: math.NaN()}, "journal: torn-write fraction NaN outside [0,1) in crash@1 mid-dispatch torn=NaN"},
		{"full torn frac", CrashFault{Round: 1, Phase: PhaseMidDispatch, TornFrac: 1}, "journal: torn-write fraction 1 outside [0,1) in crash@1 mid-dispatch torn=1.00"},
		{"ok", CrashFault{Round: 4, Phase: PhasePreAck}, ""},
	}
	for _, tc := range cases {
		err := tc.f.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestGenerateCrashScheduleDeterministic(t *testing.T) {
	a := GenerateCrashSchedule(77, 120, 5).Faults()
	b := GenerateCrashSchedule(77, 120, 5).Faults()
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	phases := map[Phase]bool{}
	for _, f := range a {
		if f.Round < 2 || f.Round >= 120 {
			t.Fatalf("fault outside round range: %v", f)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("generated invalid fault: %v", err)
		}
		phases[f.Phase] = true
	}
	if len(phases) != 3 {
		t.Fatalf("5-kill schedule exercised only phases %v", phases)
	}
}

package journal

import (
	"bytes"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes — and arbitrary truncations
// of valid logs — to Replay. The invariants: never panic, never
// report more bytes than given, every returned record must re-encode
// to a frame found intact at its offset, and LSNs must be strictly
// increasing.
func FuzzJournalReplay(f *testing.F) {
	store := NewMemStore()
	w, _ := NewWriter(store)
	w.Append(KindSnapshot, []byte("snapshot-state"))
	w.Append(KindDelta, []byte("round-1"))
	w.Append(KindDelta, []byte("round-2"))
	f.Add(store.Bytes())
	f.Add(store.Bytes()[:store.Size()-3])
	f.Add([]byte{})
	f.Add([]byte{magic})
	f.Add(bytes.Repeat([]byte{magic}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		res := Replay(data)
		if res.TornBytes < 0 || res.TornBytes > len(data) {
			t.Fatalf("torn bytes %d out of range for %d input bytes", res.TornBytes, len(data))
		}
		var last uint64
		off := 0
		for i, rec := range res.Records {
			if rec.LSN <= last {
				t.Fatalf("record %d: LSN %d not increasing past %d", i, rec.LSN, last)
			}
			last = rec.LSN
			frame := EncodeFrame(rec.Kind, rec.LSN, rec.Payload)
			if !bytes.Equal(data[off:off+len(frame)], frame) {
				t.Fatalf("record %d does not re-encode to its source bytes", i)
			}
			off += len(frame)
		}
		if off+res.TornBytes != len(data) {
			t.Fatalf("decoded %d + torn %d != %d input bytes", off, res.TornBytes, len(data))
		}
		if res.SnapshotIndex >= len(res.Records) {
			t.Fatalf("snapshot index %d out of range", res.SnapshotIndex)
		}
	})
}

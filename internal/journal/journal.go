// Package journal is the crash-restart durability plane: a snapshot +
// write-ahead journal for session and pool state, the seeded crash
// fault plane that kills the simulated process at deterministic
// (round, phase) points, and the replay machinery that restores a new
// incarnation to exactly the state the dead one had made durable.
//
// Every fault plane before this one (chip, wire, timing, surge) kills
// a component; the process hosting the ledgers always survived the
// round. This plane kills the process. What survives is only what was
// journaled: framed, checksummed records appended to a Store. The
// contract the rest of the repo builds on is exactly-once accounting
// across incarnations:
//
//   - a round whose record is durable is never re-applied twice
//     (replay applies records in strictly increasing LSN order, once);
//   - a round whose record is torn or missing is re-executed
//     bit-for-bit (sessions journal their RNG cursor, so the re-run
//     draws identical variates) and re-journaled, landing in the
//     ledger exactly once;
//   - a torn tail — the classic crash-mid-write artifact — is detected
//     by the per-record CRC and framing, discarded, and reported; it
//     can only ever affect the record being written when the process
//     died, never an earlier one.
//
// Record framing (all little-endian):
//
//	[magic 0xA7][kind 1B][lsn 8B][len 4B][payload][crc32 4B]
//
// with the IEEE CRC-32 taken over kind|lsn|len|payload. Replay stops
// at the first frame that fails any check and reports the discarded
// suffix, which is precisely the torn-write semantics of an
// append-only log on a real disk.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record kinds. Framing and replay are payload-agnostic — the payload
// is a gob record written by Encoder and read by Decoder — but the kind
// byte lets replay route records without decoding them.
const (
	// KindSnapshot is a full state snapshot; replay may start at the
	// last valid one and discard everything before it.
	KindSnapshot byte = 1
	// KindDelta is one round's incremental state (ledger increments,
	// backlog hand-off, RNG cursor).
	KindDelta byte = 2
)

const (
	magic       = 0xA7
	headerBytes = 1 + 1 + 8 + 4 // magic, kind, lsn, len
	crcBytes    = 4
)

// FrameOverhead is the per-record framing cost in bytes.
const FrameOverhead = headerBytes + crcBytes

// Record is one decoded journal record. Its Payload is a view into the
// bytes Replay scanned, capped at its own length: it stays valid while
// those bytes are unchanged, and a Store's may change under a later
// Truncate or Append.
type Record struct {
	LSN     uint64
	Kind    byte
	Payload []byte
}

// Store is the durable medium a journal appends to. Implementations
// model the disk: what Append returned before the crash is what the
// next incarnation reads back.
type Store interface {
	// Append writes bytes at the end of the log. It must not retain
	// b, as io.Writer's Write must not: the Writer frames every record
	// into one buffer it reuses.
	Append(b []byte)
	// Bytes returns the full log contents.
	Bytes() []byte
	// Truncate keeps only the first n bytes (torn-write injection and
	// snapshot compaction both use it).
	Truncate(n int)
	// Size returns the log length in bytes.
	Size() int
}

// MemStore is the in-memory Store used by simulations: "durable"
// means it survives the simulated process kill, which discards every
// other structure of the incarnation.
type MemStore struct {
	buf []byte
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (s *MemStore) Append(b []byte) { s.buf = append(s.buf, b...) }

// Bytes implements Store.
func (s *MemStore) Bytes() []byte { return s.buf }

// Truncate implements Store.
func (s *MemStore) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n < len(s.buf) {
		s.buf = s.buf[:n]
	}
}

// Size implements Store.
func (s *MemStore) Size() int { return len(s.buf) }

// EncodeFrame frames one record for appending, in a fresh slice.
func EncodeFrame(kind byte, lsn uint64, payload []byte) []byte {
	return appendFrame(make([]byte, 0, FrameOverhead+len(payload)), kind, lsn, payload)
}

// appendFrame appends one record's frame to dst.
func appendFrame(dst []byte, kind byte, lsn uint64, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, magic, kind)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+1:]))
}

// Writer appends framed records to a store with monotonically
// increasing LSNs.
type Writer struct {
	store Store
	next  uint64
	frame []byte // each append's frame, reused: Store.Append keeps no reference
}

// NewWriter opens a writer over the store, resuming the LSN sequence
// after any records already present (the recovery path: the new
// incarnation appends where the dead one stopped). It returns the
// store's replay too, torn tail included, so recovery scans the log
// once; the records' payloads view the store's bytes, valid until the
// writer's first append.
func NewWriter(store Store) (*Writer, *ReplayResult) {
	w := &Writer{store: store, next: 1}
	res := Replay(store.Bytes())
	if len(res.Records) > 0 {
		w.next = res.Records[len(res.Records)-1].LSN + 1
	}
	// A torn tail is dead bytes, even when it tore the first record:
	// drop it so the resumed log is a clean prefix plus this
	// incarnation's appends.
	store.Truncate(store.Size() - res.TornBytes)
	return w, res
}

// Append frames and durably appends one record, returning its LSN.
func (w *Writer) Append(kind byte, payload []byte) uint64 {
	lsn := w.next
	w.next++
	w.frame = appendFrame(w.frame[:0], kind, lsn, payload)
	w.store.Append(w.frame)
	return lsn
}

// AppendTorn simulates the process dying mid-write: only the first
// keep bytes of the frame reach the store. The LSN is consumed — the
// dead incarnation thought it was writing it — but replay will discard
// the fragment and the next incarnation's writer reuses the sequence
// point after the last whole record.
func (w *Writer) AppendTorn(kind byte, payload []byte, keep int) {
	w.frame = appendFrame(w.frame[:0], kind, w.next, payload)
	w.next++
	if keep < 0 {
		keep = 0
	}
	if keep >= len(w.frame) {
		keep = len(w.frame) - 1 // a "torn" write never completes
	}
	w.store.Append(w.frame[:keep])
}

// ReplayResult is the outcome of decoding a journal.
type ReplayResult struct {
	// Records lists every whole, checksum-valid record in LSN order.
	Records []Record
	// TornBytes counts the trailing bytes discarded because the final
	// frame was incomplete or failed its checksum — the torn tail.
	TornBytes int
	// SnapshotIndex is the index in Records of the last snapshot
	// record, or −1 when the journal holds none. Recovery restores it
	// and replays only the deltas after it.
	SnapshotIndex int
}

// Replay decodes a journal byte log, each record's payload a view into
// data rather than a copy. It never fails: a malformed or
// truncated suffix — the only kind a crash mid-append can produce —
// is reported as the torn tail, and everything before it is returned.
// Replay also stops at a non-monotonic LSN, which a correct writer
// cannot produce, so garbage that happens to checksum (the CRC is 32
// bits, a fuzzer will find collisions) cannot smuggle records in
// after real ones.
func Replay(data []byte) *ReplayResult {
	res := &ReplayResult{SnapshotIndex: -1}
	off := 0
	var lastLSN uint64
	for off < len(data) {
		rest := data[off:]
		if len(rest) < headerBytes+crcBytes || rest[0] != magic {
			break
		}
		kind := rest[1]
		lsn := binary.LittleEndian.Uint64(rest[2:])
		plen := int(binary.LittleEndian.Uint32(rest[10:]))
		if plen < 0 || len(rest) < headerBytes+plen+crcBytes {
			break
		}
		want := binary.LittleEndian.Uint32(rest[headerBytes+plen:])
		if crc32.ChecksumIEEE(rest[1:headerBytes+plen]) != want {
			break
		}
		if lsn <= lastLSN {
			break
		}
		lastLSN = lsn
		payload := rest[headerBytes : headerBytes+plen : headerBytes+plen]
		if kind == KindSnapshot {
			res.SnapshotIndex = len(res.Records)
		}
		res.Records = append(res.Records, Record{LSN: lsn, Kind: kind, Payload: payload})
		off += headerBytes + plen + crcBytes
	}
	res.TornBytes = len(data) - off
	return res
}

// Config tunes the durability plane of a session or pool run.
type Config struct {
	// SnapshotEvery is the number of rounds between full snapshots in
	// the journal; rounds in between append deltas. Recovery cost
	// scales with it (BenchmarkCrashRecovery measures the trade).
	// 0 means the default (16).
	SnapshotEvery int
	// Compact, when true, truncates the journal to just the snapshot
	// on every snapshot append — the log-structured checkpointing that
	// keeps the journal O(state) instead of O(rounds).
	Compact bool
	// Unjournaled disables the journal entirely while keeping the
	// crash plane live: the experimental control demonstrating that
	// crashes bite. A crash then loses every ledger and backlog; the
	// next incarnation restarts from zero state.
	Unjournaled bool
	// Crash is the seeded crash fault plane; nil means the process
	// survives the whole run.
	Crash *Plane
}

// WithDefaults resolves zero fields.
func (c Config) WithDefaults() Config {
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 16
	}
	return c
}

// Validate rejects malformed durability configurations. The crash
// plane needs no check: its Add already validated every fault.
func (c Config) Validate() error {
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("journal: negative snapshot interval %d", c.SnapshotEvery)
	}
	return nil
}

// RecoveryStats is the durability plane's observability: what the
// crash plane did and what recovery cost.
type RecoveryStats struct {
	// Crashes counts process kills the plane fired; Incarnations is
	// 1 + Crashes (the original process plus each restart).
	Crashes, Incarnations int
	// SnapshotsWritten and DeltasWritten count journal appends across
	// all incarnations.
	SnapshotsWritten, DeltasWritten int
	// SnapshotsRestored counts recoveries that found a snapshot to
	// restore; RecordsReplayed the delta records applied on top.
	SnapshotsRestored, RecordsReplayed int
	// RoundsReexecuted counts rounds run twice because the crash beat
	// their delta to the store (the exactly-once re-execution path).
	RoundsReexecuted int
	// TornTails counts recoveries that discarded a torn tail;
	// TornBytesDiscarded sums the bytes thrown away.
	TornTails, TornBytesDiscarded int
	// JournalBytes is the journal size at the end of the run.
	JournalBytes int
	// TrueOffered is the harness-side count of fresh arrivals across
	// every incarnation — the ground truth the recovered ledger is
	// audited against.
	TrueOffered int
	// BacklogLostAtCrash and LedgerLostAtCrash are nonzero only in
	// unjournaled control runs: waiting messages forgotten and
	// offered-ledger entries zeroed by stateless restarts.
	BacklogLostAtCrash, LedgerLostAtCrash int
}

package byzantine

// End-to-end frame provenance: the verified half of the byzantine
// contract. The sending edge stamps every delivered frame with a tag
//
//	[ epoch : 16 bits ][ seq : 32 bits ][ sum : 64 bits ]
//
// riding the link layer's framing conventions (link.AppendBits /
// link.FieldBits, MSB-first, one byte per bit): epoch is the fencing
// token current at emission, seq the edge's monotonic frame counter,
// and sum a keyed splitmix64 checksum over (key, epoch, seq, payload).
// The receiving edge re-derives the sum — a mismatch is a forgery —
// and slides a dedup window over (epoch, seq) — a repeat is a replay.
// This is the classic end-to-end argument: the fabric between the
// edges is untrusted, so integrity is checked where the frames
// terminate, not assumed of the boards that carried them.
//
// THE KEY IS SEEDED, NOT CRYPTOGRAPHIC. DeriveKey is a splitmix64
// mix of the session seed: it models the *information asymmetry* (the
// plane's forgers do not hold the key and so cannot mint verifying
// tags) with zero dependencies and perfect replayability, but an
// adversary who can read this code and the seed computes the key
// trivially. A deployment would swap DeriveKey/Checksum for a real
// MAC; every other mechanism here — tag layout, dedup window, ledger
// terms — is MAC-agnostic and carries over unchanged.

import (
	"fmt"

	"concentrators/internal/link"
	"concentrators/internal/seedrand"
)

// Tag field widths, in bits, in stream order.
const (
	// EpochBits carries the low bits of the fencing token current when
	// the frame was stamped.
	EpochBits = 16
	// TagSeqBits carries the sending edge's monotonic frame counter.
	TagSeqBits = 32
	// SumBits carries the keyed checksum.
	SumBits = 64
	// TagOverhead is the full provenance cost per frame, in bits.
	TagOverhead = EpochBits + TagSeqBits + SumBits
)

// Tag is one frame's provenance: who stamped it, in which epoch, at
// which position in the stream, under which keyed sum.
type Tag struct {
	Epoch uint32
	Seq   uint32
	Sum   uint64
}

// Claim is one delivery acknowledgement as presented to the receiving
// edge: the input→output association the server asserts, the payload
// bits, and the provenance tag riding them. Fields are exported so
// replay buffers gob-encode cleanly into checkpoints.
type Claim struct {
	Input   int
	Output  int
	Payload []byte
	Tag     Tag
}

// DeriveKey derives the session's checksum key from its seed — seeded,
// NOT cryptographic (see the package comment). The plane never calls
// this: the asymmetry between edges that hold the key and actors that
// do not is the modelled threat.
func DeriveKey(seed int64) uint64 {
	return seedrand.Mix64(uint64(seed) ^ 0x243F6A8885A308D3)
}

// Checksum computes the keyed sum over one frame's provenance-covered
// fields: the epoch, the sequence number, and every payload bit (one
// byte per bit, values 0/1, as everywhere in the repo).
func Checksum(key uint64, epoch, seq uint32, payload []byte) uint64 {
	h := seedrand.Mix64(key ^ uint64(epoch)<<32 ^ uint64(seq))
	for i, b := range payload {
		h = seedrand.Mix64(h ^ uint64(b&1)<<1 ^ uint64(i)<<8)
	}
	return seedrand.Mix64(h ^ uint64(len(payload)))
}

// EncodeTag packs a tag into its bit-stream form, riding the link
// layer's field packing.
func EncodeTag(t Tag) []byte {
	bits := make([]byte, 0, TagOverhead)
	bits = link.AppendBits(bits, uint64(t.Epoch), EpochBits)
	bits = link.AppendBits(bits, uint64(t.Seq), TagSeqBits)
	bits = link.AppendBits(bits, t.Sum, SumBits)
	return bits
}

// DecodeTag splits a tag bit stream. An error means the stream cannot
// even be a tag; the receiver treats that the same as a forgery.
func DecodeTag(bits []byte) (Tag, error) {
	if len(bits) < TagOverhead {
		return Tag{}, fmt.Errorf("byzantine: tag of %d bits is shorter than the %d-bit provenance framing", len(bits), TagOverhead)
	}
	return Tag{
		Epoch: uint32(link.FieldBits(bits, 0, EpochBits)),
		Seq:   uint32(link.FieldBits(bits, EpochBits, TagSeqBits)),
		Sum:   link.FieldBits(bits, EpochBits+TagSeqBits, SumBits),
	}, nil
}

// Stamper is the sending edge: it holds the key and the monotonic
// sequence counter and mints one tag per delivered frame.
type Stamper struct {
	key  uint64
	next uint32
}

// NewStamper returns a stamper keyed for the session.
func NewStamper(key uint64) *Stamper { return &Stamper{key: key} }

// Stamp mints the next frame's tag under the given fencing epoch.
func (s *Stamper) Stamp(epoch uint64, payload []byte) Tag {
	e := uint32(epoch & (1<<EpochBits - 1))
	seq := s.next
	s.next++
	return Tag{Epoch: e, Seq: seq, Sum: Checksum(s.key, e, seq, payload)}
}

// NextSeq exposes the counter for checkpointing.
func (s *Stamper) NextSeq() uint32 { return s.next }

// RestoreSeq repositions the counter from a checkpoint.
func (s *Stamper) RestoreSeq(next uint32) { s.next = next }

// Verdict is the receiving edge's booking decision for one claim.
type Verdict int

// The booking verdicts.
const (
	// VerdictOK: tag verifies and is fresh — book Delivered.
	VerdictOK Verdict = iota
	// VerdictForged: the keyed sum does not verify (or the tag stream
	// is malformed) — book Forged, never Delivered.
	VerdictForged
	// VerdictDuplicated: the sum verifies but (epoch, seq) was already
	// accepted inside the dedup window — book Duplicated.
	VerdictDuplicated
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictForged:
		return "forged"
	case VerdictDuplicated:
		return "duplicated"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// DefaultWindow is the dedup window capacity: large enough to cover
// several rounds of a full fabric, small enough that the window —
// which rides every checkpoint — stays O(1) in the session length.
const DefaultWindow = 1024

// Verifier is the receiving edge: it re-derives keyed sums and slides
// a dedup window of DefaultWindow accepted (epoch, seq) pairs.
type Verifier struct {
	key   uint64
	seen  map[uint64]struct{}
	order []uint64 // FIFO of accepted ids, oldest first
}

// NewVerifier returns a verifier keyed for the session.
func NewVerifier(key uint64) *Verifier {
	return &Verifier{key: key, seen: make(map[uint64]struct{})}
}

func tagID(t Tag) uint64 { return uint64(t.Epoch)<<32 | uint64(t.Seq) }

// Verify books one claim: forged sums first (a forger must not be
// able to probe the dedup window), then the sliding replay check,
// then acceptance — which commits (epoch, seq) into the window,
// evicting the oldest entry beyond capacity.
func (v *Verifier) Verify(t Tag, payload []byte) Verdict {
	if Checksum(v.key, t.Epoch, t.Seq, payload) != t.Sum {
		return VerdictForged
	}
	id := tagID(t)
	if _, dup := v.seen[id]; dup {
		return VerdictDuplicated
	}
	v.seen[id] = struct{}{}
	v.order = append(v.order, id)
	if len(v.order) > DefaultWindow {
		delete(v.seen, v.order[0])
		v.order = v.order[1:]
	}
	return VerdictOK
}

// VerifyBits decodes a tag bit stream and books the claim; a stream
// too short to be a tag books Forged.
func (v *Verifier) VerifyBits(bits, payload []byte) Verdict {
	t, err := DecodeTag(bits)
	if err != nil {
		return VerdictForged
	}
	return v.Verify(t, payload)
}

// Window exposes the accepted-id window, oldest first, for
// checkpointing. The key is deliberately NOT part of the snapshot: it
// re-derives from the session seed, and a checkpoint that carried it
// would hand the key to anything that can read the journal.
func (v *Verifier) Window() []uint64 {
	return append([]uint64(nil), v.order...)
}

// RestoreWindow rebuilds the dedup state from a checkpointed window.
func (v *Verifier) RestoreWindow(order []uint64) {
	v.order = append([]uint64(nil), order...)
	if len(v.order) > DefaultWindow {
		v.order = v.order[len(v.order)-DefaultWindow:]
	}
	v.seen = make(map[uint64]struct{}, len(v.order))
	for _, id := range v.order {
		v.seen[id] = struct{}{}
	}
}

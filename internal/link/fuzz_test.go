package link

import (
	"bytes"
	"testing"
)

// FuzzFrameRoundTrip drives the frame codec with arbitrary payloads
// and flip patterns: a clean encode→decode must round-trip exactly,
// and flipping ≤ 3 distinct frame bits must never yield a false
// "valid" while the frame is within the CRC's guaranteed Hamming-
// distance-4 length — the property the ARQ layer's "no corrupted
// payload is ever counted as delivered" acceptance rests on.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1}, uint8(1), uint16(0), uint16(1), uint16(2), uint8(3))
	f.Add([]byte{0}, uint8(2), uint16(3), uint16(3), uint16(3), uint8(1))
	f.Add(bytes.Repeat([]byte{1, 0}, 50), uint8(2), uint16(9), uint16(40), uint16(77), uint8(2))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, uint8(1), uint16(7), uint16(8), uint16(15), uint8(0))
	f.Add(make([]byte, 111), uint8(1), uint16(126), uint16(0), uint16(2), uint8(34))
	f.Fuzz(func(t *testing.T, payload []byte, crcSel uint8, f1, f2, f3 uint16, nflips uint8) {
		if len(payload) == 0 {
			return
		}
		for i := range payload {
			payload[i] &= 1
		}
		crc := CRC(crcSel % 3)
		// Stay within the guaranteed HD-4 dataword length (seq byte +
		// byte-padded payload); beyond it a 3-bit error may
		// legitimately alias.
		if crc != CRCNone && SeqBits+len(payload) > crc.GuaranteedBits() {
			payload = payload[:crc.GuaranteedBits()-SeqBits]
		}

		seq := int(f1) % SeqSpace
		frame := EncodeFrame(crc, seq, payload)
		gotSeq, gotPayload, ok, err := DecodeFrame(crc, frame)
		if err != nil || !ok || gotSeq != seq || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("clean round trip failed: seq %d→%d ok=%v err=%v", seq, gotSeq, ok, err)
		}

		// Flip 1–3 distinct bits; the CRC must catch all of them.
		positions := map[int]bool{}
		for _, p := range []uint16{f1, f2, f3}[:1+nflips%3] {
			positions[int(p)%len(frame)] = true
		}
		for p := range positions {
			frame[p] ^= 1
		}
		_, decoded, ok, err := DecodeFrame(crc, frame)
		if err != nil {
			t.Fatalf("flipped frame errored: %v", err)
		}
		if crc == CRCNone {
			if !ok {
				t.Fatal("CRCNone claimed detection")
			}
			return
		}
		if ok {
			t.Fatalf("%s passed a frame with %d flipped bits (payload %d bits): %v",
				crc, len(positions), len(payload), decoded)
		}
	})
}

package link

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, crc := range []CRC{CRCNone, CRC8, CRC16} {
		for _, bits := range []int{1, 7, 8, 32, 100} {
			payload := make([]byte, bits)
			for i := range payload {
				payload[i] = byte(rng.Intn(2))
			}
			for _, seq := range []int{0, 1, 127, 255, 300} {
				frame := EncodeFrame(crc, seq, payload)
				if len(frame) != FrameOverhead(crc)+bits {
					t.Fatalf("%s: frame %d bits, want %d", crc, len(frame), FrameOverhead(crc)+bits)
				}
				gotSeq, gotPayload, ok, err := DecodeFrame(crc, frame)
				if err != nil || !ok {
					t.Fatalf("%s seq %d: clean frame rejected (ok=%v err=%v)", crc, seq, ok, err)
				}
				if gotSeq != seq%SeqSpace {
					t.Fatalf("%s: seq %d decoded as %d", crc, seq, gotSeq)
				}
				if !bytes.Equal(gotPayload, payload) {
					t.Fatalf("%s seq %d: payload mangled", crc, seq)
				}
			}
		}
	}
}

// TestFrameChecksumLayout checks the checksum field against the
// documented layout: Checksum8/Checksum16 of the sequence byte and the
// payload bits packed MSB-first, the trailing byte zero-padded.
func TestFrameChecksumLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, crc := range []CRC{CRC8, CRC16} {
		for _, bits := range []int{1, 7, 8, 9, 32, 100} {
			payload := make([]byte, bits)
			for i := range payload {
				payload[i] = byte(rng.Intn(2))
			}
			packed := make([]byte, 1+(bits+7)/8)
			packed[0] = 0xA5
			for i, bit := range payload {
				packed[1+i/8] |= bit << (7 - i%8)
			}
			want := uint64(Checksum16(packed))
			if crc == CRC8 {
				want = uint64(Checksum8(packed))
			}
			frame := EncodeFrame(crc, 0xA5, payload)
			if got := FieldBits(frame, len(frame)-crc.Bits(), crc.Bits()); got != want {
				t.Errorf("%s over %d bits: checksum field %#x, want %#x", crc, bits, got, want)
			}
		}
	}
}

// TestDecodeFrameAllocs requires the receive-side check to allocate
// nothing.
func TestDecodeFrameAllocs(t *testing.T) {
	frame := EncodeFrame(CRC16, 9, make([]byte, 56))
	if a := testing.AllocsPerRun(100, func() {
		if _, _, ok, err := DecodeFrame(CRC16, frame); !ok || err != nil {
			t.Fatal("clean frame rejected")
		}
	}); a != 0 {
		t.Fatalf("DecodeFrame allocated %v times per call", a)
	}
}

func TestDecodeFrameTooShort(t *testing.T) {
	for _, crc := range []CRC{CRCNone, CRC8, CRC16} {
		short := make([]byte, FrameOverhead(crc)-1)
		if _, _, _, err := DecodeFrame(crc, short); err == nil {
			t.Errorf("%s: %d-bit runt accepted", crc, len(short))
		}
	}
}

// A corrupted frame with CRCNone sails through — the baseline that
// motivates the checksum.
func TestCRCNoneDetectsNothing(t *testing.T) {
	payload := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	frame := EncodeFrame(CRCNone, 3, payload)
	frame[SeqBits] ^= 1 // flip the first payload bit
	_, got, ok, err := DecodeFrame(CRCNone, frame)
	if err != nil || !ok {
		t.Fatalf("CRCNone flagged a frame (ok=%v err=%v)", ok, err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("flip did not land")
	}
}

package link

import "testing"

// The standard check values: CRC over the ASCII bytes "123456789".
func TestChecksumKnownAnswers(t *testing.T) {
	check := []byte("123456789")
	if got := Checksum8(check); got != 0xF4 {
		t.Errorf("CRC-8 check value: got %#02x, want 0xf4", got)
	}
	if got := Checksum16(check); got != 0x29B1 {
		t.Errorf("CRC-16/CCITT-FALSE check value: got %#04x, want 0x29b1", got)
	}
}

func TestCRCParseAndNames(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CRC
	}{
		{"none", CRCNone}, {"", CRCNone},
		{"crc8", CRC8}, {"8", CRC8},
		{"crc16", CRC16}, {"16", CRC16},
	} {
		got, err := ParseCRC(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseCRC(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseCRC("crc32"); err == nil {
		t.Error("ParseCRC accepted crc32")
	}
	if CRCNone.String() != "none" || CRC8.String() != "crc8" || CRC16.String() != "crc16" {
		t.Error("CRC names wrong")
	}
	if CRCNone.Bits() != 0 || CRC8.Bits() != 8 || CRC16.Bits() != 16 {
		t.Error("CRC widths wrong")
	}
	if CRC(7).Valid() || !CRC16.Valid() {
		t.Error("CRC.Valid wrong")
	}
}

// TestCRCDistanceExhaustive nails the Hamming-distance-4 claim the ARQ
// layer leans on: for the frame sizes the simulator streams, every
// error of 1, 2 or 3 flipped bits is detected. Exhaustive over all
// flip position combinations.
func TestCRCDistanceExhaustive(t *testing.T) {
	for _, tc := range []struct {
		crc     CRC
		payload int
	}{
		{CRC8, 8},
		{CRC8, 32},
		{CRC8, 104},
		{CRC16, 32},
	} {
		payload := make([]byte, tc.payload)
		for i := range payload {
			payload[i] = byte((i * 7) % 2)
		}
		frame := EncodeFrame(tc.crc, 0xA5, payload)
		n := len(frame)
		flipped := make([]byte, n)
		check := func(i, j, k int) {
			copy(flipped, frame)
			flipped[i] ^= 1
			if j >= 0 {
				flipped[j] ^= 1
			}
			if k >= 0 {
				flipped[k] ^= 1
			}
			if _, _, ok, err := DecodeFrame(tc.crc, flipped); err != nil || ok {
				t.Fatalf("%s payload %d: flips (%d,%d,%d) undetected (ok=%v err=%v)",
					tc.crc, tc.payload, i, j, k, ok, err)
			}
		}
		for i := 0; i < n; i++ {
			check(i, -1, -1)
			for j := i + 1; j < n; j++ {
				check(i, j, -1)
				for k := j + 1; k < n; k++ {
					check(i, j, k)
				}
			}
		}
	}
}

// TestCRC8PaddedDatawordBound pins why CRC8.GuaranteedBits counts the
// payload's byte padding: a 111-bit payload plus the seq byte is 119
// dataword bits, within the generator's limit, but the padded dataword
// is 120 bits, so frame bits 0 and 126 sit 127 positions apart — the
// period of the generator's primitive factor — and flipping both
// re-validates.
func TestCRC8PaddedDatawordBound(t *testing.T) {
	payload := make([]byte, 111)
	frame := EncodeFrame(CRC8, 126, payload)
	frame[0] ^= 1
	frame[126] ^= 1
	if _, _, ok, err := DecodeFrame(CRC8, frame); err != nil || !ok {
		t.Fatalf("flips at frame bits 0 and 126 of a 111-bit payload: ok=%v err=%v, want the aliasing pair to re-validate", ok, err)
	}
	if SeqBits+len(payload) <= CRC8.GuaranteedBits() {
		t.Fatalf("CRC8.GuaranteedBits() = %d covers a %d-bit payload with an undetected 2-bit error",
			CRC8.GuaranteedBits(), len(payload))
	}
}

package link

import "fmt"

// Frame layout, in stream order (one bit per clock cycle, following
// §2's valid bit):
//
//	[ seq : 8 bits ][ payload : L bits ][ crc : 0/8/16 bits ]
//
// The sequence number is the sender's per-input frame counter modulo
// SeqSpace; the checksum covers the sequence byte and the payload bits
// packed MSB-first (the trailing partial payload byte zero-padded —
// unambiguous because the payload length is fixed by the stream
// length, never carried in the frame).

// SeqBits is the sequence-number field width.
const SeqBits = 8

// SeqSpace is the sequence-number space; sliding windows must stay
// at or below SeqSpace/2 so a received sequence number is unambiguous.
const SeqSpace = 1 << SeqBits

// FrameOverhead returns the framing cost in bits for the checksum.
func FrameOverhead(c CRC) int { return SeqBits + c.Bits() }

// frameChecksum computes c over the sequence byte and the payload bit
// stream (values 0/1, MSB-first, trailing byte zero-padded), feeding
// each packed byte straight into the table loop instead of building
// the packed string.
func frameChecksum(c CRC, seq int, payload []byte) uint16 {
	crc := c.update(c.initial(), byte(seq))
	for len(payload) > 0 {
		n := min(8, len(payload))
		var b byte
		for i, bit := range payload[:n] {
			b |= (bit & 1) << (7 - i)
		}
		crc = c.update(crc, b)
		payload = payload[n:]
	}
	return crc
}

// AppendBits appends the low `width` bits of v to a frame bit stream
// (one byte per bit, values 0/1), MSB-first — the field packing every
// framed header in the repo uses. It is exported so higher layers
// (the byzantine plane's provenance tags) can ride the same framing.
func AppendBits(bits []byte, v uint64, width int) []byte {
	for b := width - 1; b >= 0; b-- {
		bits = append(bits, byte(v>>uint(b))&1)
	}
	return bits
}

// FieldBits reads the `width`-bit field starting at bit offset off
// from a frame bit stream, MSB-first — the inverse of AppendBits. The
// caller guarantees off+width ≤ len(bits).
func FieldBits(bits []byte, off, width int) uint64 {
	var v uint64
	for _, b := range bits[off : off+width] {
		v = v<<1 | uint64(b&1)
	}
	return v
}

// EncodeFrame wraps a payload bit stream with the sequence number and
// checksum, returning the frame's bit stream.
func EncodeFrame(c CRC, seq int, payload []byte) []byte {
	seq &= SeqSpace - 1
	frame := make([]byte, 0, SeqBits+len(payload)+c.Bits())
	frame = AppendBits(frame, uint64(seq), SeqBits)
	frame = append(frame, payload...)
	if bits := c.Bits(); bits > 0 {
		frame = AppendBits(frame, uint64(frameChecksum(c, seq, payload)), bits)
	}
	return frame
}

// DecodeFrame splits a received frame bit stream and verifies its
// checksum. ok reports checksum agreement (always true for CRCNone —
// no detection); payload aliases the input slice. An error means the
// stream is too short to even be a frame, which a receiver treats the
// same as a failed checksum.
func DecodeFrame(c CRC, bits []byte) (seq int, payload []byte, ok bool, err error) {
	overhead := FrameOverhead(c)
	if len(bits) < overhead {
		return 0, nil, false, fmt.Errorf("link: frame of %d bits is shorter than the %d-bit %s framing", len(bits), overhead, c)
	}
	seq = int(FieldBits(bits, 0, SeqBits))
	payload = bits[SeqBits : len(bits)-c.Bits()]
	if c.Bits() == 0 {
		return seq, payload, true, nil
	}
	got := uint16(FieldBits(bits, len(bits)-c.Bits(), c.Bits()))
	return seq, payload, got == frameChecksum(c, seq, payload), nil
}

// Package link gives the data plane of the multichip switches its own
// integrity machinery. The paper's switches are combinational wire
// networks: after the setup cycle, payload bits stream over stage-to-
// stage links and board-level output wires with no checking at all —
// §2's message format simply assumes every bit arrives intact. Real
// multichip boards lose bits on inter-chip links (cf. Tiny Tera's
// CRC-protected cells with per-link retransmission), so this package
// supplies:
//
//   - a seeded wire-corruption fault plane (CorruptionPlane): transient
//     bit flips, burst errors, stuck wires and erasures, addressable
//     per stage-to-stage link and per output wire, composing with the
//     chip-level fault plane of internal/core;
//   - payload framing (EncodeFrame/DecodeFrame): sequence numbers plus
//     a selectable table-driven CRC-8/CRC-16, so receivers detect
//     corruption instead of silently consuming garbage;
//   - per-(stage, link) corruption-rate tracking (LinkMonitor) with an
//     EWMA threshold that escalates a persistently-corrupting link into
//     the health plane's suspect → BIST-scan → quarantine path.
//
// The sliding-window ARQ protocol that uses these pieces lives in
// internal/switchsim (the session layer owns the round loop); this
// package is pure protocol substrate with no internal dependencies.
package link

import "fmt"

// CRC selects the frame checksum. CRCNone frames carry a sequence
// number but no checksum: corruption passes undetected, which is the
// baseline that motivates the other two.
type CRC int

// The selectable frame checksums.
const (
	// CRCNone disables corruption detection (sequence number only).
	CRCNone CRC = iota
	// CRC8 is the 8-bit ATM-HEC polynomial x⁸+x²+x+1 (0x07): Hamming
	// distance 4 for codewords up to 127 bits, so for frames whose seq
	// byte and byte-padded payload fit 112 bits.
	CRC8
	// CRC16 is the 16-bit CCITT polynomial x¹⁶+x¹²+x⁵+1 (0x1021),
	// init 0xFFFF: Hamming distance 4 for codewords up to 32767 bits,
	// so for frames whose seq byte and byte-padded payload fit 32744
	// bits.
	CRC16
)

// String names the checksum.
func (c CRC) String() string {
	switch c {
	case CRCNone:
		return "none"
	case CRC8:
		return "crc8"
	case CRC16:
		return "crc16"
	default:
		return fmt.Sprintf("CRC(%d)", int(c))
	}
}

// ParseCRC parses a checksum name as accepted on CLI flags.
func ParseCRC(s string) (CRC, error) {
	switch s {
	case "none", "":
		return CRCNone, nil
	case "crc8", "8":
		return CRC8, nil
	case "crc16", "16":
		return CRC16, nil
	default:
		return CRCNone, fmt.Errorf("link: unknown CRC %q (want none, crc8 or crc16)", s)
	}
}

// Bits returns the checksum field width in bits.
func (c CRC) Bits() int {
	switch c {
	case CRC8:
		return 8
	case CRC16:
		return 16
	default:
		return 0
	}
}

// Valid reports whether c is a known checksum selector.
func (c CRC) Valid() bool { return c >= CRCNone && c <= CRC16 }

// GuaranteedBits returns the largest dataword length (in bits) for
// which the checksum detects every error of ≤ 3 flipped bits (Hamming
// distance 4). The dataword is the seq byte plus the payload zero-
// padded to whole bytes, so the bound is the generator's limit (119
// bits for CRC-8, 32751 for CRC-16) rounded down to whole bytes: a
// frame keeps distance 4 while SeqBits plus its padded payload fits,
// which for CRC-8 means payloads up to 104 bits. CRCNone detects
// nothing.
func (c CRC) GuaranteedBits() int {
	switch c {
	case CRC8:
		return 112
	case CRC16:
		return 32744
	default:
		return 0
	}
}

// Table-driven codecs. The tables are the byte-at-a-time expansion of
// the generator polynomial — exactly what a hardware frame checker
// would hold in ROM next to its shift register.

const (
	crc8Poly  = 0x07
	crc16Poly = 0x1021
	crc16Init = 0xFFFF
)

var (
	crc8Table  = makeCRC8Table()
	crc16Table = makeCRC16Table()
)

func makeCRC8Table() [256]byte {
	var t [256]byte
	for i := 0; i < 256; i++ {
		crc := byte(i)
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ crc8Poly
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}

func makeCRC16Table() [256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crc16Poly
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}

// Checksum8 computes the CRC-8 of data (init 0).
func Checksum8(data []byte) byte {
	crc := CRC8.initial()
	for _, b := range data {
		crc = CRC8.update(crc, b)
	}
	return byte(crc)
}

// Checksum16 computes the CRC-16/CCITT-FALSE of data (init 0xFFFF).
func Checksum16(data []byte) uint16 {
	crc := CRC16.initial()
	for _, b := range data {
		crc = CRC16.update(crc, b)
	}
	return crc
}

// initial returns the checksum register's initial value, widened to
// uint16.
func (c CRC) initial() uint16 {
	if c == CRC16 {
		return crc16Init
	}
	return 0
}

// update shifts one data byte through the checksum register of c
// (CRC8 or CRC16), one table lookup per byte.
func (c CRC) update(crc uint16, b byte) uint16 {
	if c == CRC8 {
		return uint16(crc8Table[byte(crc)^b])
	}
	return crc<<8 ^ crc16Table[byte(crc>>8)^b]
}

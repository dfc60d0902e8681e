package journal

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// The record format: every journal payload is one self-contained gob
// stream, the type definitions of its record type followed by one
// value message, so a fresh decoder reads any record on its own —
// recovery starts at an arbitrary snapshot, with no stream state
// carried over from the records before it. This file is the format's
// only writer and reader.

// Encoder gob-encodes records of type T. Its zero value is ready to
// use. Each record is byte for byte what gob.NewEncoder(&b).Encode(v)
// writes into an empty buffer.
//
// A fresh gob encoder per record rebuilds and resends T's type
// definitions, by reflection, every time. Encoder builds them once: its
// first Encode runs one long-lived gob encoder over T's zero value
// twice, and the difference in output length is the length of the
// type-definition head. Every record is that head plus the value
// message the long-lived encoder writes.
//
// T must have no interface-typed fields, however deeply nested: gob
// sends an interface value's concrete type with the first value that
// holds it, so the head would not be static.
//
// gob assigns type ids process-wide, in first-use order, and a record's
// length depends on the ids it carries (the first type a process
// registers gets the one-byte-shorter id). Let the first Encode create
// the encoder, as the zero value does: a record type then registers at
// its first record, as it would under a fresh encoder per record.
type Encoder[T any] struct {
	enc  *gob.Encoder
	buf  bytes.Buffer
	head []byte
}

// Encode returns v's record. The slice is valid until the next Encode;
// Writer.Append copies it into the frame.
func (e *Encoder[T]) Encode(v *T) ([]byte, error) {
	if e.enc == nil {
		if err := e.start(); err != nil {
			return nil, err
		}
	}
	e.buf.Reset()
	e.buf.Write(e.head)
	if err := e.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("journal: encoding %T: %w", v, err)
	}
	return e.buf.Bytes(), nil
}

// start creates the long-lived gob encoder and cuts the type head from
// two encodings of the zero value: the first carries the head and a
// value message, the second the same value message alone.
func (e *Encoder[T]) start() error {
	var zero T
	enc := gob.NewEncoder(&e.buf)
	e.buf.Reset()
	if err := enc.Encode(&zero); err != nil {
		return fmt.Errorf("journal: encoding %T: %w", &zero, err)
	}
	first := e.buf.Len()
	if err := enc.Encode(&zero); err != nil {
		return fmt.Errorf("journal: encoding %T: %w", &zero, err)
	}
	value := e.buf.Len() - first
	e.head = bytes.Clone(e.buf.Bytes()[:first-value])
	e.enc = enc
	return nil
}

// Decoder reads records of type T. Its zero value is ready to use. Each
// record decodes to what a fresh gob decoder reading it alone gives.
//
// A fresh gob decoder per record reads T's type definitions and
// compiles a decode engine for them, by reflection, every time.
// Decoder keeps one gob decoder: the first record goes to it whole,
// and Decoder keeps that record's head, the gob messages before its
// value message. A later record with the same head feeds it only its
// value message, which it reads as the next value of the stream a
// long-lived encoder writes. A record with another head starts a new
// gob decoder, since a journal written by another process may carry
// other type ids (see Encoder), and so does any error.
type Decoder[T any] struct {
	dec  *gob.Decoder
	r    *bytes.Reader
	head []byte
}

// Decode reads one record into v, which should hold T's zero value, as
// for gob's Decode.
func (d *Decoder[T]) Decode(payload []byte, v *T) error {
	value, whole := lastMessage(payload)
	fresh := d.dec == nil || !whole || !bytes.Equal(payload[:value], d.head)
	if fresh {
		d.r = bytes.NewReader(payload)
		d.dec = gob.NewDecoder(d.r)
	} else {
		d.r.Reset(payload[value:])
	}
	if err := d.dec.Decode(v); err != nil {
		d.dec = nil
		return fmt.Errorf("journal: decoding %T: %w", v, err)
	}
	if d.r.Len() != 0 {
		// The decoder stopped short of the record's end, so what it has
		// read is not the head of the records after this one.
		d.dec = nil
	} else if fresh {
		d.head = append(d.head[:0], payload[:value]...)
	}
	return nil
}

// lastMessage returns where the record's last gob message begins, and
// whether its messages, each an unsigned byte count and that many
// bytes, tile it exactly.
func lastMessage(b []byte) (int, bool) {
	last := -1
	for off := 0; off < len(b); {
		n, w := gobUint(b[off:])
		if w == 0 || n > uint64(len(b)-off-w) {
			return 0, false
		}
		last = off
		off += w + int(n)
	}
	return last, last >= 0
}

// gobUint reads one of gob's unsigned integers: a byte below 0x80, or
// a negated byte count and that many big-endian bytes. It returns the
// value and its width, 0 if b does not start with one.
func gobUint(b []byte) (uint64, int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	k := -int(int8(b[0]))
	if k > 8 || len(b) <= k {
		return 0, 0
	}
	var v uint64
	for _, c := range b[1 : 1+k] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + k
}

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

// Decode reads one record into v with a fresh gob decoder.
func Decode[T any](payload []byte, v *T) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("journal: decoding %T: %w", v, err)
	}
	return nil
}

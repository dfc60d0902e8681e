package journal

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

type recordLeaf struct {
	Wire int
	Bits []byte
}

type recordFixture struct {
	Round  int64
	Name   string
	Leaf   recordLeaf
	Leaves []recordLeaf
	Ptr    *recordLeaf
	ByWire map[int]recordLeaf
	Flags  []bool
}

// recordTwin has recordFixture's fields under another name: its records
// carry another type head, and gob still decodes them into a
// recordFixture, field by field.
type recordTwin recordFixture

// recordValues are successive records with nested structs, slices, a
// one-entry map and zero values in between.
var recordValues = []recordFixture{
	{},
	{Round: 3, Name: "a", Leaf: recordLeaf{Wire: 1, Bits: []byte{1, 0, 1}}},
	{
		Round: -9, Leaves: []recordLeaf{{Wire: 2}, {}, {Wire: 5, Bits: []byte{0}}},
		Ptr:    &recordLeaf{Wire: 7},
		ByWire: map[int]recordLeaf{4: {Wire: 4, Bits: []byte{1}}},
		Flags:  []bool{true, false},
	},
	{},
	{ByWire: map[int]recordLeaf{}, Ptr: &recordLeaf{}},
	{Name: "after zero", Leaves: []recordLeaf{{Bits: []byte{1, 1}}}},
}

// decodeFresh reads one record with a fresh gob decoder, the oracle a
// Decoder must equal.
func decodeFresh[T any](payload []byte, v *T) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// TestEncoderRecordsMatchFreshGob checks that every record an Encoder
// writes is byte for byte what a fresh gob encoder writes for the same
// value, over recordValues, and that a fresh gob decoder reads each
// record back on its own.
func TestEncoderRecordsMatchFreshGob(t *testing.T) {
	values := recordValues
	var enc Encoder[recordFixture]
	for i := range values {
		got, err := enc.Encode(&values[i])
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		var want bytes.Buffer
		if err := gob.NewEncoder(&want).Encode(&values[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("value %d: record differs from a fresh encoder's\n got %x\nwant %x", i, got, want.Bytes())
		}
		var back, ref recordFixture
		if err := decodeFresh(got, &back); err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if err := gob.NewDecoder(&want).Decode(&ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("value %d: decoded %+v, want %+v", i, back, ref)
		}
	}
}

// TestDecoderMatchesFreshGob reads records of recordFixture and of
// recordTwin, in runs, through one Decoder: each must decode to what a
// fresh gob decoder gives, and the Decoder must start a new gob
// decoder exactly where the head changes — its first record and the
// first of each run — and read every other record's value message on
// the decoder it has.
func TestDecoderMatchesFreshGob(t *testing.T) {
	var enc Encoder[recordFixture]
	var twinEnc Encoder[recordTwin]
	var dec Decoder[recordFixture]
	var last *gob.Decoder
	twins := []bool{false, false, false, true, true, false, true, false, false, false, false, false}
	for i, twin := range twins {
		v := recordValues[i%len(recordValues)]
		var rec []byte
		var err error
		if twin {
			tv := recordTwin(v)
			rec, err = twinEnc.Encode(&tv)
		} else {
			rec, err = enc.Encode(&v)
		}
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		var got, want recordFixture
		if err := dec.Decode(rec, &got); err != nil {
			t.Fatalf("record %d (twin %v): %v", i, twin, err)
		}
		if err := decodeFresh(rec, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d (twin %v): decoded %+v, a fresh decoder %+v", i, twin, got, want)
		}
		restarted := dec.dec != last
		last = dec.dec
		if wantRestart := i == 0 || twin != twins[i-1]; restarted != wantRestart {
			t.Fatalf("record %d (twin %v): new gob decoder %v, want %v", i, twin, restarted, wantRestart)
		}
	}
}

// TestDecodeRejectsGarbage checks that a payload that is not a record
// of the type is an error, not a zero value, and that a Decoder reads
// the next whole record after one, even one whose head it knew but
// whose value message was garbage.
func TestDecodeRejectsGarbage(t *testing.T) {
	var dec Decoder[recordFixture]
	var v recordFixture
	if err := dec.Decode([]byte{3, 1, 2, 3}, &v); err == nil {
		t.Error("decoded garbage")
	}
	if err := dec.Decode(nil, &v); err == nil {
		t.Error("decoded an empty payload")
	}
	var enc Encoder[recordFixture]
	rec, err := enc.Encode(&recordValues[2])
	if err != nil {
		t.Fatal(err)
	}
	value, whole := lastMessage(rec)
	if !whole {
		t.Fatalf("record %x does not split into gob messages", rec)
	}
	// The record's head, then a one-byte message that starts a type id
	// and ends before it.
	bad := append(bytes.Clone(rec[:value]), 1, 0xFF)
	for i, payload := range [][]byte{rec, bad, rec} {
		var got recordFixture
		err := dec.Decode(payload, &got)
		if i == 1 {
			if err == nil {
				t.Fatal("decoded a record whose value message is garbage")
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, recordValues[2]) {
			t.Fatalf("payload %d: decoded %+v (%v), want %+v", i, got, err, recordValues[2])
		}
	}
}

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

// TestEncoderRecordsMatchFreshGob checks that every record an Encoder
// writes is byte for byte what a fresh gob encoder writes for the same
// value, over successive values with nested structs, slices, a
// one-entry map and zero values in between, and that Decode reads each
// record back on its own.
func TestEncoderRecordsMatchFreshGob(t *testing.T) {
	values := []recordFixture{
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
		if err := Decode(got, &back); err != nil {
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

// TestDecodeRejectsGarbage checks that a payload that is not a record
// of the type is an error, not a zero value.
func TestDecodeRejectsGarbage(t *testing.T) {
	var v recordFixture
	if err := Decode([]byte{3, 1, 2, 3}, &v); err == nil {
		t.Error("decoded garbage")
	}
	if err := Decode(nil, &v); err == nil {
		t.Error("decoded an empty payload")
	}
}

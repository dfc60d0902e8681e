package switchsim

import (
	"reflect"
	"strings"
	"testing"

	"concentrators/internal/core"
)

func TestWriteWaveform(t *testing.T) {
	sw, _ := core.NewPerfectSwitch(4, 4)
	msgs := []Message{
		{Input: 1, Payload: []byte{1, 0, 1, 1}},
		{Input: 3, Payload: []byte{0, 1, 0, 0}},
	}
	res, err := Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteWaveform(&sb, 4, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "valid=0101") {
		t.Errorf("missing valid bits:\n%s", out)
	}
	if !strings.Contains(out, "1_11 <- input 1") {
		t.Errorf("missing routed waveform:\n%s", out)
	}
	if !strings.Contains(out, "(idle)") {
		t.Errorf("missing idle marker:\n%s", out)
	}
}

func TestWriteWaveformTruncation(t *testing.T) {
	sw, _ := core.NewPerfectSwitch(2, 2)
	msgs := []Message{{Input: 0, Payload: make([]byte, 50)}}
	res, err := Run(sw, msgs)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteWaveform(&sb, 2, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "truncated") {
		t.Error("missing truncation note")
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "out") && len(line) > 30 {
			t.Errorf("line not truncated: %q", line)
		}
	}
}

// TestDuplicatedWireSharesBits routes two messages onto one output
// wire through a FaultDuplicate short: the later, shorter message
// overwrites the first cycles of the wire, both deliveries read the
// wire's bits, and the waveform row shows the wire as it is.
func TestDuplicatedWireSharesBits(t *testing.T) {
	sw, err := core.NewPerfectSwitch(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFaultySwitch(sw, FaultDuplicate, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{
		{Input: 0, Payload: []byte{1, 0, 1, 0, 1, 0}},
		{Input: 2, Payload: []byte{0, 1}},
	}
	res, err := Run(f, msgs)
	if err != nil {
		t.Fatal(err)
	}
	want := []Delivery{
		{Input: 0, Output: 0, Payload: []byte{0, 1, 1, 0, 1, 0}},
		{Input: 2, Output: 0, Payload: []byte{0, 1}},
	}
	if !reflect.DeepEqual(res.Delivered, want) {
		t.Fatalf("delivered %v, want %v", res.Delivered, want)
	}
	wave := waveform(t, res, 4)
	for _, row := range []string{"out   0  _11_1_ <- input 2\n", "out   1  ______ (idle)\n"} {
		if !strings.Contains(wave, row) {
			t.Errorf("waveform lacks row %q:\n%s", row, wave)
		}
	}
}

package switchsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/journal"
)

// FuzzDecodePayload round-trips arbitrary data through the message
// encoding: NewMessage emits an MSB-first bit stream, DecodePayload
// must reassemble it exactly. A second pass feeds DecodePayload raw
// arbitrary bit streams (including non-0/1 bytes and trailing partial
// bytes) and checks it stays total and length-correct.
func FuzzDecodePayload(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0x00, 0xA5})
	f.Add([]byte("hello, concentrator"))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg := NewMessage(0, data)
		if len(msg.Payload) != 8*len(data) {
			t.Fatalf("payload %d bits for %d bytes", len(msg.Payload), len(data))
		}
		for _, bit := range msg.Payload {
			if bit > 1 {
				t.Fatalf("non-binary payload bit %d", bit)
			}
		}
		got := DecodePayload(msg.Payload)
		if len(data) == 0 {
			if len(got) != 0 {
				t.Fatalf("decoded %d bytes from empty payload", len(got))
			}
		} else if !bytes.Equal(got, data) {
			t.Fatalf("round trip: %x → %x", data, got)
		}

		// Treat the raw input as a bit stream: decoding must ignore any
		// trailing partial byte and mask non-binary bytes to their LSB.
		raw := DecodePayload(data)
		if len(raw) != len(data)/8 {
			t.Fatalf("decoded %d bytes from %d raw bits", len(raw), len(data))
		}
	})
}

// FuzzRunMatchesReference streams fuzz-chosen payloads through the
// Revsort(64, 48) switch. For each input in turn, one byte of data
// picks whether it sends (odd) and its payload length (the byte over
// two, capped at what data has left); the payload is the next bytes of
// data as they are, high bits included. Run must equal the reference
// streaming loop, its waveform must show the reference's wires, it
// must pass the guarantee check, and flipping the delivered bit that
// flip picks must fail the check at that bit's input and cycle.
func FuzzRunMatchesReference(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	f.Add([]byte{3, 0xFF, 0x02, 0, 17, 1, 0xFE, 1, 0, 1, 1, 0, 1, 1, 0}, uint16(0))
	f.Add([]byte{3, 0xFF, 0x02, 0, 17, 1, 0xFE, 1, 0, 1, 1, 0, 1, 1, 0}, uint16(5))
	f.Add(bytes.Repeat([]byte{67, 0xFF, 1, 0, 0xFE, 2, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1,
		0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1}, 40), uint16(977))
	sw, err := core.NewRevsortSwitch(64, 48)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, flip uint16) {
		var msgs []Message
		for in := 0; in < sw.Inputs() && len(data) > 0; in++ {
			code := int(data[0])
			data = data[1:]
			if code%2 == 0 {
				continue
			}
			k := min(code/2, len(data))
			msgs = append(msgs, Message{Input: in, Payload: data[:k:k]})
			data = data[k:]
		}
		want, wires, err := referenceRun(sw, msgs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(sw, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Run diverges from the reference:\n%+v\n%+v", got, want)
		}
		checkWires(t, "fuzz", got, wires)
		if err := CheckGuarantee(sw, msgs, got); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, d := range got.Delivered {
			total += len(d.Payload)
		}
		if total == 0 {
			return
		}
		at := int(flip) % total
		for _, d := range got.Delivered {
			if at >= len(d.Payload) {
				at -= len(d.Payload)
				continue
			}
			d.Payload[at] ^= 1
			want := fmt.Sprintf("switchsim: message from input %d corrupted at cycle %d", d.Input, at)
			if err := CheckGuarantee(sw, msgs, got); err == nil || err.Error() != want {
				t.Fatalf("flipped bit: got error %v, want %q", err, want)
			}
			return
		}
	})
}

// FuzzDurableExactlyOnce crashes a journaled session wherever the
// fuzzer says: any seed, policy and load, and up to eight kills, three
// schedule bytes each for the kill's round, phase and torn fraction.
// The recovered stats must equal the crash-free run's, those must
// equal RunSession's, and the recovered ledger must count exactly the
// offers the harness saw become external.
func FuzzDurableExactlyOnce(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(200), []byte{9, 0, 0, 17, 1, 100, 33, 2, 0})
	f.Add(int64(2), uint8(2), uint8(230), []byte{5, 1, 0, 5, 1, 255, 5, 0, 0, 8, 2, 0, 8, 2, 0})
	f.Add(int64(3), uint8(3), uint8(150), []byte{0, 0, 0, 39, 2, 0, 16, 0, 0})
	f.Add(int64(4), uint8(0), uint8(255), []byte{1, 1, 13, 2, 1, 250})
	// A tear of the journal's first record, then a later kill: recovery
	// must not leave the fragment in front of the rounds it commits.
	f.Add(int64(1), uint8(1), uint8(200), []byte{0, 1, 48, 8, 0, 0})
	sw, err := core.NewColumnsortSwitchBeta(16, 8, 0.75)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, policy, load uint8, schedule []byte) {
		cfg := SessionConfig{Policy: Policy(policy % 4), Load: float64(load) / 255, Rounds: 40, PayloadBits: 4, Seed: seed}
		if cfg.Policy == Resend {
			cfg.AckDelay = 1
		}
		crash := journal.NewCrashPlane(seed)
		for i := 0; i+2 < len(schedule) && crash.Len() < 8; i += 3 {
			fault := journal.CrashFault{Round: int(schedule[i]) % cfg.Rounds, Phase: journal.Phase(schedule[i+1] % 3)}
			if fault.Phase == journal.PhaseMidDispatch {
				fault.TornFrac = float64(schedule[i+2]) / 256
			}
			if err := crash.Add(fault); err != nil {
				t.Fatal(err)
			}
		}
		stats := func(st *SessionStats, err error) string {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		want := stats(RunSession(sw, cfg))
		control, _, err := RunDurableSession(sw, cfg, journal.Config{SnapshotEvery: 8})
		if got := stats(control, err); got != want {
			t.Fatalf("crash-free durable stats differ from RunSession's\n got: %s\nwant: %s", got, want)
		}
		got, rec, err := RunDurableSession(sw, cfg, journal.Config{SnapshotEvery: 8, Crash: crash})
		if s := stats(got, err); s != want {
			t.Fatalf("recovered stats differ from the crash-free run's after %d crashes (%v)\n got: %s\nwant: %s",
				rec.Crashes, crash.Faults(), s, want)
		}
		if got.Offered != rec.TrueOffered {
			t.Fatalf("recovered ledger offered %d, harness saw %d", got.Offered, rec.TrueOffered)
		}
		if rec.Crashes > crash.Len() {
			t.Fatalf("%d crashes fired from %d faults", rec.Crashes, crash.Len())
		}
	})
}

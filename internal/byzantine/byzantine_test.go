package byzantine

import (
	"reflect"
	"strings"
	"testing"
)

func TestFaultValidate(t *testing.T) {
	cases := []struct {
		name string
		f    Fault
		want string // substring of the error; "" means valid
	}{
		{"misroute ok", Fault{Mode: Misroute, Replica: 0, From: 2, Until: 6}, ""},
		{"replay ok", Fault{Mode: Replay, Replica: 1, Count: 2, From: 0, Until: 3}, ""},
		{"fabricated ok", Fault{Mode: FabricatedAck, Replica: 2, From: 1, Until: 9}, ""},
		{"equivocation ok", Fault{Mode: Equivocation, Replica: 0, From: 4, Until: 7}, ""},
		{"negative from", Fault{Mode: Misroute, Replica: 0, From: -1, Until: 3}, "negative From"},
		{"unbounded window", Fault{Mode: Misroute, Replica: 0, From: 3, Until: 0}, "bounded [From,Until) window"},
		{"empty window", Fault{Mode: Misroute, Replica: 0, From: 3, Until: 3}, "empty round window"},
		{"negative replica", Fault{Mode: Misroute, Replica: -1, From: 0, Until: 2}, "replica actor"},
		{"negative count", Fault{Mode: Replay, Replica: 0, Count: -2, From: 0, Until: 2}, "negative intensity"},
		{"unknown mode", Fault{Mode: Mode(42), Replica: 0, From: 0, Until: 2}, "unknown mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate(%v) = %v, want nil", tc.f, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(%v) = %v, want error containing %q", tc.f, err, tc.want)
			}
		})
	}
}

func TestPlaneIntensityAndWindows(t *testing.T) {
	p := NewPlane(7)
	mustAdd := func(f Fault) {
		t.Helper()
		if err := p.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(Fault{Mode: Misroute, Replica: 0, Count: 2, From: 3, Until: 6})
	mustAdd(Fault{Mode: Misroute, Replica: 0, From: 5, Until: 8}) // overlaps: intensities sum
	mustAdd(Fault{Mode: Replay, Replica: 1, From: 2, Until: 4})
	mustAdd(Fault{Mode: FabricatedAck, Replica: 0, Count: 3, From: 0, Until: 2})
	mustAdd(Fault{Mode: Equivocation, Replica: 2, From: 4, Until: 5})

	if got := p.Misroutes(2, 0); got != 0 {
		t.Errorf("Misroutes before window = %d, want 0", got)
	}
	if got := p.Misroutes(3, 0); got != 2 {
		t.Errorf("Misroutes(3,0) = %d, want 2", got)
	}
	if got := p.Misroutes(5, 0); got != 3 {
		t.Errorf("Misroutes(5,0) overlapping = %d, want 3", got)
	}
	if got := p.Misroutes(3, 1); got != 0 {
		t.Errorf("Misroutes wrong actor = %d, want 0", got)
	}
	if got := p.Replays(2, 1); got != 1 {
		t.Errorf("Replays(2,1) = %d, want 1 (default intensity)", got)
	}
	if got := p.Fabrications(1, 0); got != 3 {
		t.Errorf("Fabrications(1,0) = %d, want 3", got)
	}
	if !p.Equivocating(4, 2) || p.Equivocating(5, 2) || p.Equivocating(4, 0) {
		t.Error("Equivocating window or actor wrong")
	}
}

func TestPlaneNil(t *testing.T) {
	var nilp *Plane
	if nilp.Misroutes(1, 0) != 0 || nilp.Replays(1, 0) != 0 || nilp.Fabrications(1, 0) != 0 ||
		nilp.Equivocating(1, 0) {
		t.Error("nil plane must be fully honest")
	}
}

func TestPickDeterministicAndInRange(t *testing.T) {
	p := NewPlane(11)
	for draw := 0; draw < 8; draw++ {
		a := p.Pick(5, 1, draw, 10)
		b := NewPlane(11).Pick(5, 1, draw, 10)
		if a != b {
			t.Fatalf("Pick not deterministic: %d vs %d", a, b)
		}
		if a < 0 || a >= 10 {
			t.Fatalf("Pick out of range: %d", a)
		}
	}
	if p.Pick(5, 1, 0, 0) != 0 {
		t.Error("Pick with no candidates must return 0")
	}
	if p.Pick(3, 0, 0, 10) == NewPlane(12).Pick(3, 0, 0, 10) &&
		p.Pick(4, 0, 0, 10) == NewPlane(12).Pick(4, 0, 0, 10) &&
		p.Pick(5, 0, 0, 10) == NewPlane(12).Pick(5, 0, 0, 10) {
		t.Error("Pick appears seed-independent")
	}
}

func TestStampVerifyRoundTrip(t *testing.T) {
	key := DeriveKey(1987)
	s := NewStamper(key)
	v := NewVerifier(key)
	payload := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	for i := 0; i < 50; i++ {
		tag := s.Stamp(3, payload)
		if got := v.Verify(tag, payload); got != VerdictOK {
			t.Fatalf("genuine tag %d booked %v", i, got)
		}
	}
	if s.NextSeq() != 50 {
		t.Errorf("NextSeq = %d, want 50", s.NextSeq())
	}
}

func TestVerifyForged(t *testing.T) {
	key := DeriveKey(1)
	s := NewStamper(key)
	v := NewVerifier(key)
	payload := []byte{1, 1, 0, 1}
	tag := s.Stamp(1, payload)

	flipped := tag
	flipped.Sum ^= 1 << 17
	if got := v.Verify(flipped, payload); got != VerdictForged {
		t.Errorf("flipped sum booked %v, want forged", got)
	}
	wrongPayload := []byte{1, 1, 0, 0}
	if got := v.Verify(tag, wrongPayload); got != VerdictForged {
		t.Errorf("payload mismatch booked %v, want forged", got)
	}
	wrongKey := NewVerifier(DeriveKey(2))
	if got := wrongKey.Verify(tag, payload); got != VerdictForged {
		t.Errorf("wrong key booked %v, want forged", got)
	}
	// The plane's keyless forger never verifies.
	pl := NewPlane(1) // same seed as the key's session: still no key
	forged := Tag{Epoch: tag.Epoch, Seq: tag.Seq + 1, Sum: pl.ForgeSum(0, 0, 0)}
	if got := v.Verify(forged, payload); got != VerdictForged {
		t.Errorf("ForgeSum tag booked %v, want forged", got)
	}
	// The genuine tag still verifies after the rejections: forgeries
	// must not poison the window.
	if got := v.Verify(tag, payload); got != VerdictOK {
		t.Errorf("genuine tag after forgeries booked %v, want ok", got)
	}
}

func TestVerifyDedupWindow(t *testing.T) {
	key := DeriveKey(5)
	s := NewStamper(key)
	v := NewVerifier(key)
	payload := []byte{0, 1}
	tags := make([]Tag, DefaultWindow+2)
	for i := range tags {
		tags[i] = s.Stamp(0, payload)
		if v.Verify(tags[i], payload) != VerdictOK {
			t.Fatalf("fresh tag %d rejected", i)
		}
	}
	// Replays of the oldest and newest tags still inside the window:
	// duplicated.
	for _, i := range []int{2, len(tags) - 1} {
		if got := v.Verify(tags[i], payload); got != VerdictDuplicated {
			t.Errorf("in-window replay of tag %d booked %v, want duplicated", i, got)
		}
	}
	// tags[0] and tags[1] have slid out of the window: a replay of
	// them re-verifies — the bounded-window tradeoff. They re-enter
	// the window as fresh acceptances.
	if got := v.Verify(tags[0], payload); got != VerdictOK {
		t.Errorf("out-of-window replay booked %v, want ok (window slid)", got)
	}
	if got := v.Verify(tags[0], payload); got != VerdictDuplicated {
		t.Errorf("second replay booked %v, want duplicated", got)
	}
}

func TestVerifierWindowSnapshotRestore(t *testing.T) {
	key := DeriveKey(9)
	s := NewStamper(key)
	v := NewVerifier(key)
	payload := []byte{1}
	var tags []Tag
	for i := 0; i < 5; i++ {
		tag := s.Stamp(2, payload)
		tags = append(tags, tag)
		v.Verify(tag, payload)
	}
	win := v.Window()
	if len(win) != 5 {
		t.Fatalf("Window() = %d entries, want 5", len(win))
	}
	restored := NewVerifier(key)
	restored.RestoreWindow(win)
	for i, tag := range tags {
		if got := restored.Verify(tag, payload); got != VerdictDuplicated {
			t.Errorf("restored verifier booked replayed tag %d as %v, want duplicated", i, got)
		}
	}
	if got := restored.Verify(s.Stamp(2, payload), payload); got != VerdictOK {
		t.Errorf("restored verifier booked fresh tag %v, want ok", got)
	}
	if !reflect.DeepEqual(v.Window()[:5], win) {
		t.Error("Window() snapshot is not stable")
	}
}

func TestTagEncodeDecodeRoundTrip(t *testing.T) {
	tags := []Tag{
		{},
		{Epoch: 1, Seq: 2, Sum: 3},
		{Epoch: 1<<EpochBits - 1, Seq: 1<<31 + 17, Sum: ^uint64(0)},
		{Epoch: 0xBEEF, Seq: 0xDEADBEEF, Sum: 0x0123456789ABCDEF},
	}
	for _, want := range tags {
		bits := EncodeTag(want)
		if len(bits) != TagOverhead {
			t.Fatalf("EncodeTag(%+v) = %d bits, want %d", want, len(bits), TagOverhead)
		}
		for _, b := range bits {
			if b > 1 {
				t.Fatalf("EncodeTag emitted non-bit byte %d", b)
			}
		}
		got, err := DecodeTag(bits)
		if err != nil || got != want {
			t.Fatalf("DecodeTag(EncodeTag(%+v)) = %+v, %v", want, got, err)
		}
	}
	if _, err := DecodeTag(make([]byte, TagOverhead-1)); err == nil {
		t.Error("DecodeTag accepted a short stream")
	}
}

func TestVerifyBitsEndToEnd(t *testing.T) {
	key := DeriveKey(77)
	s := NewStamper(key)
	v := NewVerifier(key)
	payload := []byte{1, 0, 1}
	bits := EncodeTag(s.Stamp(4, payload))
	if got := v.VerifyBits(bits, payload); got != VerdictOK {
		t.Fatalf("VerifyBits genuine = %v, want ok", got)
	}
	if got := v.VerifyBits(bits, payload); got != VerdictDuplicated {
		t.Fatalf("VerifyBits replay = %v, want duplicated", got)
	}
	// Any single flipped bit of a fresh tag forges it.
	fresh := EncodeTag(s.Stamp(4, payload))
	for i := range fresh {
		mut := append([]byte(nil), fresh...)
		mut[i] ^= 1
		if got := v.VerifyBits(mut, payload); got != VerdictForged {
			t.Fatalf("bit %d flipped: booked %v, want forged", i, got)
		}
	}
	if got := v.VerifyBits(fresh[:10], payload); got != VerdictForged {
		t.Fatalf("truncated tag booked %v, want forged", got)
	}
}

func TestChecksumCoversEveryField(t *testing.T) {
	key := DeriveKey(3)
	payload := []byte{1, 0, 1, 1}
	base := Checksum(key, 7, 42, payload)
	if Checksum(key, 8, 42, payload) == base {
		t.Error("checksum ignores epoch")
	}
	if Checksum(key, 7, 43, payload) == base {
		t.Error("checksum ignores seq")
	}
	if Checksum(key, 7, 42, []byte{1, 0, 1, 0}) == base {
		t.Error("checksum ignores payload bits")
	}
	if Checksum(key, 7, 42, payload[:3]) == base {
		t.Error("checksum ignores payload length")
	}
	if Checksum(DeriveKey(4), 7, 42, payload) == base {
		t.Error("checksum ignores key")
	}
}

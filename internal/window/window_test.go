package window

import (
	"reflect"
	"strings"
	"testing"
)

func TestSpanActive(t *testing.T) {
	cases := []struct {
		name  string
		span  Span
		round int
		want  bool
	}{
		{"before-from", Span{From: 3, Until: 7}, 2, false},
		{"at-from", Span{From: 3, Until: 7}, 3, true},
		{"inside", Span{From: 3, Until: 7}, 5, true},
		{"at-until", Span{From: 3, Until: 7}, 7, false},
		{"forever-at-from", Span{From: 3}, 3, true},
		{"forever-far", Span{From: 3}, 1 << 20, true},
		{"forever-before", Span{From: 3}, 2, false},
		{"zero-span-round-zero", Span{}, 0, true},
	}
	for _, tc := range cases {
		if got := tc.span.Active(tc.round); got != tc.want {
			t.Errorf("%s: Span%+v.Active(%d) = %v, want %v", tc.name, tc.span, tc.round, got, tc.want)
		}
	}
}

func TestSpanBounded(t *testing.T) {
	if (Span{From: 1, Until: 2}).Bounded() != true {
		t.Error("bounded span not Bounded")
	}
	if (Span{From: 1}).Bounded() != false {
		t.Error("open span reported Bounded")
	}
	if (Span{From: 1, Until: -4}).Bounded() != false {
		t.Error("negative Until reported Bounded")
	}
}

// The message fragments are load-bearing: the planes wrap them into
// their historical error strings, so the exact wording is asserted.
func TestCheckMessages(t *testing.T) {
	cases := []struct {
		name        string
		from, until int
		wantErr     string // "" means valid
	}{
		{"valid-bounded", 2, 5, ""},
		{"valid-forever", 2, 0, ""},
		{"valid-forever-negative-until", 2, -1, ""},
		{"negative-from", -1, 5, "negative From round"},
		{"empty", 5, 5, "empty round window [5,5)"},
		{"inverted", 5, 3, "empty round window [5,3)"},
	}
	for _, tc := range cases {
		err := Check(tc.from, tc.until)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Check(%d,%d) = %v, want nil", tc.name, tc.from, tc.until, err)
			}
			continue
		}
		if err == nil || err.Error() != tc.wantErr {
			t.Errorf("%s: Check(%d,%d) = %v, want %q", tc.name, tc.from, tc.until, err, tc.wantErr)
		}
	}
}

func TestCheckBoundedMessages(t *testing.T) {
	cases := []struct {
		name        string
		from, until int
		what        string
		wantErr     string
	}{
		{"valid", 2, 5, "fault", ""},
		{"negative-from-wins", -1, 0, "fault", "negative From round"},
		{"empty-wins", 4, 4, "fault", "empty round window [4,4)"},
		{"open-ended", 2, 0, "fault", "fault needs a bounded [From,Until) window"},
		{"open-ended-named", 2, -1, "ramp fault", "ramp fault needs a bounded [From,Until) window"},
	}
	for _, tc := range cases {
		err := CheckBounded(tc.from, tc.until, tc.what)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: CheckBounded = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || err.Error() != tc.wantErr {
			t.Errorf("%s: CheckBounded(%d,%d,%q) = %v, want %q", tc.name, tc.from, tc.until, tc.what, err, tc.wantErr)
		}
	}
}

// A bounded window passed through CheckBounded must also satisfy
// Check — the bounded discipline is a strict subset.
func TestBoundedSubset(t *testing.T) {
	for from := 0; from < 6; from++ {
		for until := -1; until < 8; until++ {
			if CheckBounded(from, until, "x") == nil && Check(from, until) != nil {
				t.Fatalf("CheckBounded accepted (%d,%d) that Check rejects", from, until)
			}
		}
	}
	if !strings.Contains(CheckBounded(0, 0, "cut").Error(), "cut needs") {
		t.Error("CheckBounded does not name the offender")
	}
}

// spanFault is a test fault: valid when its window passes Check.
type spanFault Span

func (f spanFault) Validate() error { return Check(f.From, f.Until) }

// TestPlane walks one plane through a table of Adds: a valid fault is
// appended in insertion order, an invalid one is rejected with its
// Validate error and leaves Len and Faults unchanged, and a Faults
// slice taken before an Add keeps its length and contents, even after
// its holder appends to it.
func TestPlane(t *testing.T) {
	p := NewPlane[spanFault](-0x5EED)
	if p.Seed() != -0x5EED {
		t.Fatalf("Seed = %d, want %d", p.Seed(), -0x5EED)
	}
	two := []spanFault{{From: 5}, {From: 1, Until: 3}}
	for _, tc := range []struct {
		name    string
		add     spanFault
		wantErr string
		want    []spanFault
	}{
		{"first", spanFault{From: 5}, "", two[:1]},
		{"earlier From after a later one", spanFault{From: 1, Until: 3}, "", two},
		{"negative From", spanFault{From: -1}, "negative From round", two},
		{"empty window", spanFault{From: 4, Until: 4}, "empty round window [4,4)", two},
		{"third", spanFault{}, "", append(two, spanFault{})},
		{"fourth", spanFault{From: 2}, "", append(two, spanFault{}, spanFault{From: 2})},
	} {
		before := p.Faults()
		kept := append([]spanFault(nil), before...)
		grown := append(before, spanFault{From: 99})
		err := p.Add(tc.add)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Fatalf("%s: Add = %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
			t.Fatalf("%s: Add = %v, want %q", tc.name, err, tc.wantErr)
		}
		if p.Len() != len(tc.want) || !reflect.DeepEqual(p.Faults(), tc.want) {
			t.Fatalf("%s: Len %d, Faults %v, want %v", tc.name, p.Len(), p.Faults(), tc.want)
		}
		if !reflect.DeepEqual(before, kept) || grown[len(before)] != (spanFault{From: 99}) {
			t.Fatalf("%s: Add changed an earlier Faults slice: %v, was %v; appended %v", tc.name, before, kept, grown)
		}
	}
}

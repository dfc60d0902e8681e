package partition

import (
	"strings"
	"testing"
)

func TestFaultValidate(t *testing.T) {
	cases := []struct {
		name string
		f    Fault
		want string // substring of the error; "" means valid
	}{
		{"symmetric ok", Fault{Mode: SymmetricCut, Replica: 1, From: 2, Until: 6}, ""},
		{"one-way ok", Fault{Mode: OneWay, Replica: 0, Dir: FromReplica, From: 0, Until: 3}, ""},
		{"flapping ok", Fault{Mode: Flapping, Replica: 2, Prob: 0.5, From: 1, Until: 9}, ""},
		{"isolation ok", Fault{Mode: ArbiterIsolation, Replica: AllReplicas, From: 4, Until: 7}, ""},
		{"negative from", Fault{Mode: SymmetricCut, Replica: 0, From: -1, Until: 3}, "negative From"},
		{"unbounded window", Fault{Mode: SymmetricCut, Replica: 0, From: 3, Until: 0}, "bounded [From,Until) window"},
		{"empty window", Fault{Mode: SymmetricCut, Replica: 0, From: 3, Until: 3}, "empty round window"},
		{"negative replica", Fault{Mode: SymmetricCut, Replica: -2, From: 0, Until: 2}, "replica target"},
		{"isolation with single target", Fault{Mode: ArbiterIsolation, Replica: 1, From: 0, Until: 2}, "targets AllReplicas"},
		{"bad direction", Fault{Mode: OneWay, Replica: 0, Dir: Direction(9), From: 0, Until: 2}, "unknown direction"},
		{"zero flap prob", Fault{Mode: Flapping, Replica: 0, Prob: 0, From: 0, Until: 2}, "outside (0,1]"},
		{"flap prob above one", Fault{Mode: Flapping, Replica: 0, Prob: 1.5, From: 0, Until: 2}, "outside (0,1]"},
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
			if err == nil {
				t.Fatalf("Validate(%v) = nil, want error containing %q", tc.f, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(%v) = %q, want substring %q", tc.f, err, tc.want)
			}
		})
	}
}

func TestVisibleModes(t *testing.T) {
	p := NewPlane(7)
	mustAdd := func(f Fault) {
		t.Helper()
		if err := p.Add(f); err != nil {
			t.Fatalf("Add(%v): %v", f, err)
		}
	}
	mustAdd(Fault{Mode: SymmetricCut, Replica: 0, From: 2, Until: 5})
	mustAdd(Fault{Mode: OneWay, Replica: 1, Dir: ToReplica, From: 3, Until: 6})

	// Symmetric cut: both directions down for replica 0 inside the window.
	for _, dir := range []Direction{ToReplica, FromReplica} {
		if p.Visible(3, 0, dir) {
			t.Errorf("replica 0 %s visible during symmetric cut", dir)
		}
		if !p.Visible(1, 0, dir) || !p.Visible(5, 0, dir) {
			t.Errorf("replica 0 %s cut outside window [2,5)", dir)
		}
	}
	// One-way: only the named direction is down, and only for replica 1.
	if p.Visible(4, 1, ToReplica) {
		t.Error("replica 1 to-replica visible during one-way cut")
	}
	if !p.Visible(4, 1, FromReplica) {
		t.Error("one-way to-replica cut also severed from-replica")
	}
	if !p.Visible(4, 2, ToReplica) {
		t.Error("one-way cut of replica 1 leaked onto replica 2")
	}

	// Arbiter isolation takes down every edge, both directions.
	iso := NewPlane(7)
	if err := iso.Add(Fault{Mode: ArbiterIsolation, Replica: AllReplicas, From: 1, Until: 4}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		for _, dir := range []Direction{ToReplica, FromReplica} {
			if iso.Visible(2, r, dir) {
				t.Fatalf("replica %d %s visible during arbiter isolation", r, dir)
			}
			if !iso.Visible(4, r, dir) {
				t.Fatalf("replica %d %s still cut after isolation healed", r, dir)
			}
		}
	}

	// Nil plane: fully visible.
	var nilPlane *Plane
	if !nilPlane.Visible(0, 0, ToReplica) {
		t.Error("nil plane should be fully visible")
	}
}

func TestFlappingDeterministic(t *testing.T) {
	f := Fault{Mode: Flapping, Replica: 1, Prob: 0.5, From: 0, Until: 64}
	a, b := NewPlane(99), NewPlane(99)
	if err := a.Add(f); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(f); err != nil {
		t.Fatal(err)
	}
	// Query b in a scrambled order first: Visible must be a pure function
	// of (seed, round, edge), independent of call history.
	for round := 63; round >= 0; round-- {
		b.Visible(round, 1, FromReplica)
	}
	downs := 0
	for round := 0; round < 64; round++ {
		av := a.Visible(round, 1, FromReplica)
		bv := b.Visible(round, 1, FromReplica)
		if av != bv {
			t.Fatalf("round %d: same seed diverged (a=%v b=%v)", round, av, bv)
		}
		// A flap takes the whole edge down both ways for the round.
		if av != a.Visible(round, 1, ToReplica) {
			t.Fatalf("round %d: flap was not symmetric across directions", round)
		}
		if !av {
			downs++
		}
		// Other replicas are untouched.
		if !a.Visible(round, 0, FromReplica) {
			t.Fatalf("round %d: flap on replica 1 leaked onto replica 0", round)
		}
	}
	if downs == 0 || downs == 64 {
		t.Fatalf("p=0.5 flap over 64 rounds was down %d rounds — want a mix", downs)
	}
	// A different seed should flap a different pattern somewhere.
	c := NewPlane(100)
	if err := c.Add(f); err != nil {
		t.Fatal(err)
	}
	same := true
	for round := 0; round < 64; round++ {
		if a.Visible(round, 1, FromReplica) != c.Visible(round, 1, FromReplica) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 99 and 100 produced identical 64-round flap patterns")
	}
}

// TestVisibleAllocs requires a flap verdict to allocate nothing: the
// per-(round, edge) stream lives on the stack.
func TestVisibleAllocs(t *testing.T) {
	p := NewPlane(3)
	if err := p.Add(Fault{Mode: Flapping, Replica: 1, Prob: 0.5, From: 0, Until: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	round := 0
	if a := testing.AllocsPerRun(100, func() {
		round++
		p.Visible(round, 1, ToReplica)
	}); a != 0 {
		t.Fatalf("Visible with a flapping fault allocated %v times per call", a)
	}
}

func TestStringForms(t *testing.T) {
	for _, m := range []Mode{SymmetricCut, OneWay, Flapping, ArbiterIsolation, Mode(9)} {
		if m.String() == "" {
			t.Fatalf("empty String for mode %d", int(m))
		}
	}
	for _, d := range []Direction{ToReplica, FromReplica, Direction(9)} {
		if d.String() == "" {
			t.Fatalf("empty String for direction %d", int(d))
		}
	}
	f := Fault{Mode: OneWay, Replica: 1, Dir: FromReplica, From: 2, Until: 5}
	if s := f.String(); !strings.Contains(s, "one-way") || !strings.Contains(s, "[2,5)") {
		t.Fatalf("Fault.String() = %q", s)
	}
}

package core

import (
	"testing"

	"concentrators/internal/bitvec"
	"concentrators/internal/mesh"
	"concentrators/internal/nearsort"
)

// Fuzz the full verification chain on the Figure 6 switch: any byte
// string becomes a valid pattern; the route must satisfy partial
// concentration AND match the mesh algorithm exactly.
func FuzzColumnsortRoute(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78})
	sw, err := NewColumnsortSwitch(8, 4, 18)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := bitvec.New(32)
		for i := 0; i < 32; i++ {
			if len(raw) > 0 && raw[i%len(raw)]&(1<<uint(i%8)) != 0 {
				v.Set(i, true)
			}
		}
		out, err := sw.Route(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := nearsort.CheckPartialConcentration(v, out, 18, sw.EpsilonBound()); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		// Mesh equivalence.
		m, err := mesh.FromRowMajor(v, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := mesh.Algorithm2(m); err != nil {
			t.Fatal(err)
		}
		occupied := bitvec.New(32)
		for _, o := range out {
			if o >= 0 {
				occupied.Set(o, true)
			}
		}
		rm := m.RowMajor()
		for x := 0; x < 18; x++ {
			if occupied.Get(x) != rm.Get(x) {
				t.Fatalf("%s: switch/mesh divergence at output %d", v, x)
			}
		}
	})
}

func FuzzRevsortRoute(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF})
	f.Add([]byte{0xA5, 0x5A})
	sw, err := NewRevsortSwitch(16, 10)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := bitvec.New(16)
		for i := 0; i < 16; i++ {
			if len(raw) > 0 && raw[i%len(raw)]&(1<<uint(i%8)) != 0 {
				v.Set(i, true)
			}
		}
		out, err := sw.Route(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := nearsort.CheckPartialConcentration(v, out, 10, sw.EpsilonBound()); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	})
}

// FuzzFaultPlaneRoute checks the kernel's chip-fault fixups against the
// tracker reference on Revsort n=16 and Columnsort 8×4: the first four
// bytes are the valid bits, each following group of five bytes one
// fault (mode, stage, chip, ports A and B, reduced into range), up to
// three faults. RouteWithPlane and TraceWithPlane must equal the
// tracker's.
func FuzzFaultPlaneRoute(f *testing.F) {
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 2, 3, 1, 0, 0})
	f.Add([]byte{0x5A, 0x0F, 0x33, 0x81, 1, 0, 2, 7, 3, 0, 1, 0, 0, 0, 3, 2, 1, 0, 0})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 2, 1, 0, 0, 9, 2, 0, 3, 5, 2})
	rev, err := NewRevsortSwitch(16, 10)
	if err != nil {
		f.Fatal(err)
	}
	col, err := NewColumnsortSwitch(8, 4, 18)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 {
			return
		}
		for _, sw := range []trackedSwitch{rev, col} {
			n := sw.Inputs()
			v := bitvec.New(n)
			for i := 0; i < n; i++ {
				v.Set(i, raw[i/8%4]&(1<<uint(i%8)) != 0)
			}
			stages := sw.StageChips()
			p := NewFaultPlane()
			for rest := raw[4:]; len(rest) >= 5 && p.Len() < 3; rest = rest[5:] {
				si := int(rest[1]) % len(stages)
				st := stages[si]
				a := int(rest[3]) % st.Ports
				p.Add(ChipFault{
					Stage: si,
					Chip:  int(rest[2]) % st.Chips,
					Mode:  ChipFaultMode(rest[0] % 4),
					A:     a,
					B:     (a + 1 + int(rest[4])%(st.Ports-1)) % st.Ports,
				})
			}
			want, err := sw.trackerRouteWithPlane(v, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.RouteWithPlane(v, p)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRoute(t, sw.Name()+" RouteWithPlane", got, want)
			wantSnaps, want, err := sw.trackerTraceWithPlane(v, p)
			if err != nil {
				t.Fatal(err)
			}
			gotSnaps, got, err := sw.TraceWithPlane(v, p)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRoute(t, sw.Name()+" TraceWithPlane", got, want)
			requireSameSnapshots(t, sw.Name()+" TraceWithPlane", gotSnaps, wantSnaps)
		}
	})
}

package bench

import (
	"fmt"
	"io"
	"math/rand"

	"concentrators/internal/bitonic"
	"concentrators/internal/hyper"
	"concentrators/internal/workload"
)

func runBitonicBaseline(w io.Writer) error {
	section(w, "X7", "bitonic baseline vs CL86 chip")
	fmt.Fprintln(w, "the pre-CL86 way to build a hyperconcentrator is a sorting network on the valid")
	fmt.Fprintln(w, "bits; the paper builds on CL86 chips instead. why, quantitatively:")
	fmt.Fprintf(w, "%8s %18s %18s %14s %14s\n", "n", "bitonic delays", "CL86 delays", "comparators", "CL86 area")
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		sw, err := bitonic.NewSwitch(n, n)
		if err != nil {
			return err
		}
		nw, err := bitonic.NewNetwork(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %11d (lg²n) %11d (2lgn) %14d %14.0f\n",
			n, sw.GateDelays(), hyper.GateDelays(n)+hyper.PadDelays, nw.Comparators(), hyper.Area(n))
	}

	// Functional sanity woven into the experiment: the bitonic switch
	// is a perfect concentrator on every tested pattern.
	rng := rand.New(rand.NewSource(113))
	n := 256
	sw, err := bitonic.NewSwitch(n, n/2)
	if err != nil {
		return err
	}
	checked := 0
	for _, g := range append(workload.AdversarialSuite(), workload.Generator(workload.Bernoulli{Load: 0.5})) {
		for trial := 0; trial < 20; trial++ {
			v := g.Pattern(rng, n)
			out, err := sw.Route(v)
			if err != nil {
				return err
			}
			routed := 0
			for _, o := range out {
				if o >= 0 {
					routed++
				}
			}
			want := v.Count()
			if want > n/2 {
				want = n / 2
			}
			if routed != want {
				return fmt.Errorf("bitonic dropped messages below capacity: %d < %d", routed, want)
			}
			checked++
		}
	}
	fmt.Fprintf(w, "perfect concentration verified on %d patterns (n=%d, m=%d) ✓\n", checked, n, n/2)
	fmt.Fprintln(w, "verdict: the sorting network wins no resource: asymptotically slower (lg² n vs")
	fmt.Fprintln(w, "2 lg n) and still a single chip with the same pin problem — the CL86 chip plus")
	fmt.Fprintln(w, "mesh partitioning dominates it, which is the paper's (implicit) design rationale.")
	return nil
}

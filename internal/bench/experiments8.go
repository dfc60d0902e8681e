package bench

import (
	"fmt"
	"io"
	"math/rand"

	"concentrators/internal/core"
	"concentrators/internal/knockout"
)

func runKnockout(w io.Writer) error {
	section(w, "X12", "knockout switch application")
	fmt.Fprintln(w, "the canonical 1987 application of concentrators: an N×N packet switch whose")
	fmt.Fprintln(w, "every output accepts ≤L simultaneous packets through an N-to-L concentrator.")
	rng := rand.New(rand.NewSource(213))
	n := 32
	load := 0.9
	fmt.Fprintf(w, "N=%d, uniform load %.1f, 600 slots per point:\n", n, load)
	fmt.Fprintf(w, "%4s | %14s %14s %22s\n", "L", "analytic loss", "perfect ports", "columnsort ports (ε=9)")
	colFactory := func(nn, ll int) (core.Concentrator, error) {
		return core.NewColumnsortSwitch(8, 4, ll)
	}
	for _, l := range []int{1, 2, 4, 6, 8, 12} {
		ana := knockout.AnalyticLoss(n, l, load)

		perfect, err := knockout.New(n, l, knockout.PerfectFactory)
		if err != nil {
			return err
		}
		ps, err := perfect.Simulate(rng, load, 600)
		if err != nil {
			return err
		}

		partial, err := knockout.New(n, l, colFactory)
		if err != nil {
			return err
		}
		cs, err := partial.Simulate(rng, load, 600)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%4d | %14.6f %14.6f %22.6f\n", l, ana, ps.LossProbability(), cs.LossProbability())
	}
	fmt.Fprintln(w, "reading: simulated perfect-port loss tracks the binomial analytic curve; by")
	fmt.Fprintln(w, "L=8 knockout loss is negligible (the classic result). Partial-concentrator")
	fmt.Fprintln(w, "ports add loss only where k > αL collisions occur — at small L the ε=9 penalty")
	fmt.Fprintln(w, "dominates; by L≈12 (αL > typical collision size) they match the perfect ports.")
	return nil
}

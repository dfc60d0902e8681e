package bench

import (
	"fmt"
	"io"

	"concentrators/internal/bitonic"
	"concentrators/internal/core"
)

func runTruncatedNearsorter(w io.Writer) error {
	section(w, "X10", "truncated-bitonic nearsorters")
	fmt.Fprintln(w, `§6 asks: "There may be ε-nearsorters based on networks other than the`)
	fmt.Fprintln(w, `two-dimensional mesh to which we can apply Lemma 2. What types of partial`)
	fmt.Fprintln(w, `concentrator switches can we build?" One answer: truncate a bitonic sorting`)
	fmt.Fprintln(w, "network after T levels. Each retained level costs gate delay and buys ε.")
	n, m := 16, 10
	fmt.Fprintf(w, "n=%d, m=%d; ε computed EXACTLY (all 2^%d patterns):\n", n, m, n)
	fmt.Fprintf(w, "%8s %12s %8s %12s %12s\n", "levels", "comparators", "ε", "load α", "gate delays")
	full, err := bitonic.NewNetwork(n)
	if err != nil {
		return err
	}
	for levels := 0; levels <= full.Levels(); levels++ {
		sw, err := bitonic.NewTruncatedSwitch(n, m, levels)
		if err != nil {
			return err
		}
		tr, err := full.Truncated(levels)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %12d %8d %12.4f %12d\n",
			levels, tr.Comparators(), sw.EpsilonBound(), core.LoadRatio(sw), sw.GateDelays())
	}
	fmt.Fprintln(w, "reading: the family interpolates between a wire bundle (T=0, α=0) and a full")
	fmt.Fprintln(w, "hyperconcentrator (T=lg n(lg n+1)/2, α=1); mid-T switches are new Lemma-2")
	fmt.Fprintln(w, "partial concentrators that undercut the full sorter's lg² n delay.")
	return nil
}

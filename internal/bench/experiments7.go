package bench

import (
	"fmt"
	"io"

	"concentrators/internal/core"
)

// naivePartitionChips is §1's lower bound made concrete: partitioning
// the Θ(n²)-component single-chip hyperconcentrator among p-pin chips
// needs Ω((n/p)²) chips, "since each p-pin chip has area O(p²) and
// there are Θ(n²) components to partition".
func naivePartitionChips(n, p int) int {
	area := n * n
	perChip := p * p
	return (area + perChip - 1) / perChip
}

func runPartitioningCost(w io.Writer) error {
	section(w, "X11", "partitioning cost")
	fmt.Fprintln(w, "§1: splitting the Θ(n²)-area hyperconcentrator across p-pin chips costs")
	fmt.Fprintln(w, "Ω((n/p)²) chips; the partial concentrators get away with Θ(n/p).")
	fmt.Fprintf(w, "%8s %6s | %14s %14s %16s %14s\n",
		"n", "p", "naive chips", "revsort", "columnsort β=½", "ratio naive/rev")
	for _, n := range []int{1024, 4096, 16384, 65536} {
		rev, err := core.NewRevsortSwitch(n, n/2)
		if err != nil {
			return err
		}
		col, err := core.NewColumnsortSwitchBeta(n, n/2, 0.5)
		if err != nil {
			return err
		}
		p := rev.DataPinsPerChip() // the pin class the multichip design actually uses
		naive := naivePartitionChips(n, p)
		fmt.Fprintf(w, "%8d %6d | %14d %14d %16d %14.1f\n",
			n, p, naive, rev.ChipCount(), col.ChipCount(), float64(naive)/float64(rev.ChipCount()))
	}
	fmt.Fprintln(w, "the gap widens as √n — the whole reason the paper trades perfection for ε.")
	return nil
}

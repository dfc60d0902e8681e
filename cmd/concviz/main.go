// Command concviz renders the paper's Figure 3 and Figure 6 scenarios
// as ASCII: the matrix of wires at each stage of the switch, with each
// message drawn as a letter (the figures' "heavy lines"), and the final
// output assignment.
//
// Usage:
//
//	concviz -figure 3            # Revsort switch, n=64 m=28, 24 messages
//	concviz -figure 6            # Columnsort switch, r=8 s=4 m=18, 14 messages
//	concviz -figure 3 -k 10 -seed 7
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"concentrators/cmd/internal/cli"
	"concentrators/internal/bitvec"
	"concentrators/internal/core"
)

func main() {
	figure := flag.Int("figure", 3, "which paper figure to render: 3 (Revsort) or 6 (Columnsort); 0 for custom -design")
	design := flag.String("design", "", "custom mode: revsort | columnsort (with -n/-r/-s/-m)")
	n := flag.Int("n", 64, "revsort inputs (custom mode)")
	r := flag.Int("r", 8, "columnsort rows (custom mode)")
	s := flag.Int("s", 4, "columnsort columns (custom mode)")
	m := flag.Int("m", 0, "outputs (custom mode; default n/2)")
	k := flag.Int("k", 0, "number of valid messages (default: the figure's count, or n/3)")
	seed := flag.Int64("seed", 1, "random seed for message placement")
	cli.Parse("concviz")

	rng := rand.New(rand.NewSource(*seed))
	if *design != "" {
		runCustom(rng, *design, *n, *r, *s, *m, *k)
		return
	}
	switch *figure {
	case 3:
		if *k == 0 {
			*k = 24
		}
		sw, err := core.NewRevsortSwitch(64, 28)
		if err != nil {
			fatal(err)
		}
		valid := pickValid(rng, 64, *k)
		snaps, out, err := sw.Trace(valid)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Figure 3: Revsort partial concentrator, n=64, m=28, %d valid messages\n", *k)
		render(snaps, out, sw.Outputs())
	case 6:
		if *k == 0 {
			*k = 14
		}
		sw, err := core.NewColumnsortSwitch(8, 4, 18)
		if err != nil {
			fatal(err)
		}
		valid := pickValid(rng, 32, *k)
		snaps, out, err := sw.Trace(valid)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Figure 6: Columnsort partial concentrator, r=8, s=4 (n=32), m=18, %d valid messages\n", *k)
		render(snaps, out, sw.Outputs())
	default:
		fatal(fmt.Errorf("unknown figure %d (have 3 and 6)", *figure))
	}
}

func runCustom(rng *rand.Rand, design string, n, r, s, m, k int) {
	switch design {
	case "revsort":
		if m == 0 {
			m = n / 2
		}
		if k == 0 {
			k = n / 3
		}
		sw, err := core.NewRevsortSwitch(n, m)
		if err != nil {
			fatal(err)
		}
		valid := pickValid(rng, n, k)
		snaps, out, err := sw.Trace(valid)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Revsort partial concentrator, n=%d, m=%d, %d valid messages\n", n, m, k)
		render(snaps, out, m)
	case "columnsort":
		total := r * s
		if m == 0 {
			m = total / 2
		}
		if k == 0 {
			k = total / 3
		}
		sw, err := core.NewColumnsortSwitch(r, s, m)
		if err != nil {
			fatal(err)
		}
		valid := pickValid(rng, total, k)
		snaps, out, err := sw.Trace(valid)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Columnsort partial concentrator, r=%d s=%d (n=%d), m=%d, %d valid messages\n", r, s, total, m, k)
		render(snaps, out, m)
	default:
		fatal(fmt.Errorf("unknown design %q (have revsort, columnsort)", design))
	}
}

func pickValid(rng *rand.Rand, n, k int) *bitvec.Vector {
	if k > n {
		k = n
	}
	v := bitvec.New(n)
	for _, i := range rng.Perm(n)[:k] {
		v.Set(i, true)
	}
	return v
}

func render(snaps []core.Snapshot, out []int, m int) {
	for _, s := range snaps {
		fmt.Println(s.Render())
	}
	delivered, dropped := 0, 0
	fmt.Printf("routing (outputs are the first %d matrix positions in row-major order):\n", m)
	for i, o := range out {
		if o >= 0 {
			fmt.Printf("  input %2d → output %2d\n", i, o)
			delivered++
		} else if isValidIdx(snaps[0], i) {
			fmt.Printf("  input %2d → DROPPED (landed past output %d)\n", i, m-1)
			dropped++
		}
	}
	fmt.Printf("delivered %d, dropped %d\n", delivered, dropped)
}

func isValidIdx(s core.Snapshot, i int) bool {
	return s.Cell[i] >= 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// Command conclayout prints packaging reports for the multichip switch
// designs: chips, boards, stacks, pins, 2D area and 3D volume, in the
// style of Figures 3, 4, 6 and 7 of the paper.
//
// Usage examples:
//
//	conclayout -design revsort -n 64 -m 28       # the Figure 3/4 instance
//	conclayout -design columnsort -r 8 -s 4 -m 18 # the Figure 6/7 instance
//	conclayout -design all -n 4096
package main

import (
	"flag"
	"fmt"
	"os"

	"concentrators/cmd/internal/cli"
	"concentrators/internal/core"
	"concentrators/internal/layout"
)

func main() {
	design := flag.String("design", "all", "revsort | columnsort | perfect | full-revsort | full-columnsort | all | table1")
	n := flag.Int("n", 64, "inputs (revsort/perfect/full-revsort/table1)")
	r := flag.Int("r", 8, "columnsort rows")
	s := flag.Int("s", 4, "columnsort columns")
	m := flag.Int("m", 0, "outputs (default n/2)")
	cli.Parse("conclayout")

	if *m == 0 {
		*m = *n / 2
	}

	var err error
	switch *design {
	case "revsort":
		err = show(layout.RevsortPackage(*n, *m))
	case "columnsort":
		err = show(layout.ColumnsortPackage(*r, *s, *m))
	case "perfect":
		err = show(layout.PerfectPackage(*n, *m))
	case "full-revsort":
		err = show(layout.FullRevsortPackage(*n))
	case "full-columnsort":
		err = show(layout.FullColumnsortPackage(*r, *s))
	case "table1":
		var rows []layout.Table1Row
		rows, err = layout.Table1(*n, *m)
		if err == nil {
			fmt.Printf("Table 1 at n=%d, m=%d:\n%s", *n, *m, layout.FormatTable1(rows))
		}
	case "all":
		for _, f := range []func() (*layout.Package, error){
			func() (*layout.Package, error) { return layout.PerfectPackage(*n, *m) },
			func() (*layout.Package, error) { return layout.RevsortPackage(*n, *m) },
			func() (*layout.Package, error) {
				rr, ss, e := core.ShapeForBeta(*n, 0.5)
				if e != nil {
					return nil, e
				}
				return layout.ColumnsortPackage(rr, ss, *m)
			},
			func() (*layout.Package, error) {
				rr, ss, e := core.ShapeForBeta(*n, 0.75)
				if e != nil {
					return nil, e
				}
				return layout.ColumnsortPackage(rr, ss, *m)
			},
			func() (*layout.Package, error) { return layout.BitonicPackage(*n, *m) },
			func() (*layout.Package, error) { return layout.SeqHyperPackage(*n) },
		} {
			if e := show(f()); e != nil {
				fmt.Fprintln(os.Stderr, e)
			}
			fmt.Println()
		}
	default:
		err = fmt.Errorf("unknown design %q", *design)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func show(p *layout.Package, err error) error {
	if err != nil {
		return err
	}
	fmt.Print(p.String())
	return nil
}

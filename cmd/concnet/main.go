// Command concnet inspects the gate-level netlists: print size/depth
// statistics or emit Graphviz DOT for any circuit in the library.
//
// Usage examples:
//
//	concnet -circuit hyper -n 16                      # stats only
//	concnet -circuit columnsort -r 8 -s 4 -m 18 -opt  # optimized stats
//	concnet -circuit shifter -n 8 -dot shifter.dot    # DOT file
//	concnet -circuit shifter-hardwired -n 8 -amount 3
package main

import (
	"flag"
	"fmt"
	"os"

	"concentrators/cmd/internal/cli"
	"concentrators/internal/bitonic"
	"concentrators/internal/gatelevel"
	"concentrators/internal/hyper"
	"concentrators/internal/logic"
	"concentrators/internal/shifter"
)

func main() {
	circuit := flag.String("circuit", "hyper", "hyper | shifter | shifter-hardwired | revsort | columnsort | bitonic")
	n := flag.Int("n", 16, "size (inputs / shifter width)")
	m := flag.Int("m", 0, "outputs for switches (default n/2)")
	r := flag.Int("r", 8, "columnsort rows")
	s := flag.Int("s", 4, "columnsort columns")
	amount := flag.Int("amount", 1, "hardwired shifter rotation")
	opt := flag.Bool("opt", false, "run the optimizer before reporting")
	dotPath := flag.String("dot", "", "write Graphviz DOT to this file")
	cli.Parse("concnet")
	if *m == 0 {
		*m = *n / 2
	}

	net, err := build(*circuit, *n, *m, *r, *s, *amount)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *opt {
		before := net.NetStats()
		net = net.Optimize()
		fmt.Printf("before optimize: %s\n", before)
	}
	fmt.Printf("%-18s %s\n", *circuit+":", net.NetStats())

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := net.WriteDOT(f, *circuit); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}
}

func build(circuit string, n, m, r, s, amount int) (*logic.Net, error) {
	switch circuit {
	case "hyper":
		nl, err := hyper.BuildNetlist(n)
		if err != nil {
			return nil, err
		}
		return nl.Net, nil
	case "shifter":
		return shifter.Build(n)
	case "shifter-hardwired":
		return shifter.BuildHardwired(n, amount)
	case "revsort":
		sw, err := gatelevel.BuildRevsort(n, m)
		if err != nil {
			return nil, err
		}
		return sw.Net, nil
	case "columnsort":
		sw, err := gatelevel.BuildColumnsort(r, s, m)
		if err != nil {
			return nil, err
		}
		return sw.Net, nil
	case "bitonic":
		net, _, err := bitonic.BuildNetlist(n)
		return net, err
	default:
		return nil, fmt.Errorf("unknown circuit %q", circuit)
	}
}

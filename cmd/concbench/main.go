// Command concbench regenerates the paper's tables and figures and
// runs the data-plane perf suite.
//
// Usage:
//
//	concbench                  # run every experiment
//	concbench -list            # list experiment ids
//	concbench -run F3          # run one experiment
//	concbench -bench           # run the perf suite (human table)
//	GOMAXPROCS=1 concbench -bench -bench-out BENCH_11.json
//	concbench -bench -baseline BENCH_11.json   # exit 2 on regression
//
// Experiment ids follow the per-experiment index in DESIGN.md. The
// perf suite measures the word-parallel route kernel, healthy and with
// a one-chip fault plane installed, the zero-alloc session round, the
// pool's failover-sweep round, wire corruption along a frame's path,
// one integrity (ARQ) session and one journaled chaos replay; -baseline
// gates ns/op within +20% of the committed baseline and forbids
// allocs/op growth.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"concentrators/cmd/internal/cli"
	"concentrators/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "run a single experiment by id (default: all)")
	doBench := flag.Bool("bench", false, "run the data-plane perf suite instead of experiments")
	benchOut := flag.String("bench-out", "", "write the perf suite report as JSON to this file")
	baseline := flag.String("baseline", "", "compare the perf suite against this JSON baseline; exit 2 on regression")
	benchTime := flag.Duration("bench-time", 25*time.Millisecond, "minimum timing window per perf case")
	cli.Parse("concbench")

	if *doBench {
		os.Exit(runBench(*benchOut, *baseline, *benchTime))
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	if *run != "" {
		e, err := bench.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		return
	}

	failed := false
	for _, e := range bench.All() {
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

func runBench(outPath, baselinePath string, benchTime time.Duration) int {
	rep, err := bench.RunPerfSuite(benchTime)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	bench.WritePerf(os.Stdout, rep)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := bench.EncodePerf(f, rep); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\nwrote %s (%d cases)\n", outPath, len(rep.Results))
	}
	if baselinePath != "" {
		f, err := os.Open(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		base, err := bench.DecodePerf(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if regs := bench.ComparePerf(base, rep, 0.2); len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "\nperf regressions vs %s:\n", baselinePath)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			return cli.ExitViolation
		}
		fmt.Printf("no perf regressions vs %s\n", baselinePath)
	}
	return 0
}

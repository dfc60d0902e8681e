package bench

import (
	"fmt"
	"io"
	"math/rand"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
	"concentrators/internal/gatelevel"
	"concentrators/internal/hyper"
	"concentrators/internal/optroute"
	"concentrators/internal/seqhyper"
	"concentrators/internal/shifter"
	"concentrators/internal/workload"
)

// --- D2 -----------------------------------------------------------------------

func runGateLevel(w io.Writer) error {
	section(w, "D2", "gate-level composition")

	fmt.Fprintln(w, "barrel shifter (§4: hardwired control ⇒ O(1) delay):")
	for _, width := range []int{8, 16, 32, 64} {
		gen, err := shifter.Build(width)
		if err != nil {
			return err
		}
		hw, err := shifter.BuildHardwired(width, width/3+1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  w=%3d: general depth %2d (%4d gates) → hardwired depth %d (%d gates: pure wiring)\n",
			width, gen.Depth(), gen.GateCount(), hw.Depth(), hw.GateCount())
		if hw.Depth() != 0 || hw.GateCount() != 0 {
			return fmt.Errorf("hardwired shifter did not fold to wiring")
		}
	}

	fmt.Fprintln(w, "flat multichip switch netlists (every chip a gate-level instance):")
	type build struct {
		name string
		mk   func() (*gatelevel.Switch, error)
	}
	builds := []build{
		{"revsort n=16 m=12", func() (*gatelevel.Switch, error) { return gatelevel.BuildRevsort(16, 12) }},
		{"revsort n=64 m=28 (Fig.3)", func() (*gatelevel.Switch, error) { return gatelevel.BuildRevsort(64, 28) }},
		{"columnsort 4×4 m=12", func() (*gatelevel.Switch, error) { return gatelevel.BuildColumnsort(4, 4, 12) }},
		{"columnsort 8×4 m=18 (Fig.6)", func() (*gatelevel.Switch, error) { return gatelevel.BuildColumnsort(8, 4, 18) }},
		{"columnsort 16×4 m=32", func() (*gatelevel.Switch, error) { return gatelevel.BuildColumnsort(16, 4, 32) }},
	}
	for _, bd := range builds {
		sw, err := bd.mk()
		if err != nil {
			return err
		}
		opt := sw.Net.Optimize()
		fmt.Fprintf(w, "  %-28s depth %3d (%6d gates), optimized depth %3d (%6d gates)\n",
			bd.name, sw.Net.Depth(), sw.Net.GateCount(), opt.Depth(), opt.GateCount())
	}
	fmt.Fprintln(w, "(the netlist chips are the prefix+banyan realization — Θ(lg w) depth with a larger")
	fmt.Fprintln(w, " constant than the CL86 domino-CMOS 2 lg w; stage counts and composition match §4/§5)")
	return nil
}

// --- X5 ------------------------------------------------------------------------

func runObliviousPrice(w io.Writer) error {
	section(w, "X5", "price of oblivious control")
	rng := rand.New(rand.NewSource(112))

	fmt.Fprintln(w, "omniscient = max-flow through the same wiring with crossbar chips.")
	fmt.Fprintln(w, "finding: BOTH topologies are rearrangeable for concentration (omniscient always")
	fmt.Fprintln(w, "delivers min(k,m)); every dropped message is the price of combinational control.")

	// Revsort n=64 m=28.
	rsw, err := core.NewRevsortSwitch(64, 28)
	if err != nil {
		return err
	}
	rtp, err := optroute.RevsortTopology(64, 28)
	if err != nil {
		return err
	}
	// Columnsort 8×4 m=18.
	csw, err := core.NewColumnsortSwitch(8, 4, 18)
	if err != nil {
		return err
	}
	ctp, err := optroute.ColumnsortTopology(8, 4, 18)
	if err != nil {
		return err
	}

	report := func(name string, sw core.Concentrator, mx func(v *bitvec.Vector) (int, error)) error {
		n, m := sw.Inputs(), sw.Outputs()
		gens := append(workload.AdversarialSuite(),
			workload.Generator(workload.Bernoulli{Load: 0.3}),
			workload.Generator(workload.Bernoulli{Load: 0.6}),
			workload.Generator(workload.Bernoulli{Load: 0.9}))
		worstGap, totalSwitch, totalOmni, patterns := 0, 0, 0, 0
		for _, g := range gens {
			for trial := 0; trial < 25; trial++ {
				v := g.Pattern(rng, n)
				if v.Count() == 0 {
					continue
				}
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
				omni, err := mx(v)
				if err != nil {
					return err
				}
				want := v.Count()
				if m < want {
					want = m
				}
				if omni != want {
					return fmt.Errorf("%s: omniscient %d != min(k,m) %d — rearrangeability broken", name, omni, want)
				}
				if gap := omni - routed; gap > worstGap {
					worstGap = gap
				}
				totalSwitch += routed
				totalOmni += omni
				patterns++
			}
		}
		fmt.Fprintf(w, "%-24s n=%3d m=%3d: switch delivered %5d / omniscient %5d over %d patterns "+
			"(%.2f%% of optimal; worst single-pattern gap %d)\n",
			name, n, m, totalSwitch, totalOmni, patterns,
			100*float64(totalSwitch)/float64(totalOmni), worstGap)
		return nil
	}

	if err := report("revsort (Fig.3)", rsw, func(v *bitvec.Vector) (int, error) { return rtp.MaxRoutable(v) }); err != nil {
		return err
	}
	if err := report("columnsort (Fig.6)", csw, func(v *bitvec.Vector) (int, error) { return ctp.MaxRoutable(v) }); err != nil {
		return err
	}
	return nil
}

// --- X6 -------------------------------------------------------------------------

func runSeqHyper(w io.Writer) error {
	section(w, "X6", "sequential prefix+butterfly hyperconcentrator (§1 baseline)")
	fmt.Fprintln(w, "the §1 alternative: Θ(n^{3/2}) volume, O(n lg n) chips, 4 data pins/chip — but sequential.")
	fmt.Fprintf(w, "%8s %12s %10s %12s %14s %16s\n", "n", "setup (cyc)", "latency", "chips", "pins/chip", "vs revsort chips")
	for _, n := range []int{64, 256, 1024, 4096} {
		s, err := seqhyper.New(n)
		if err != nil {
			return err
		}
		rsw, err := core.NewRevsortSwitch(n, n/2)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %12d %10d %12d %14d %16d\n",
			n, s.SetupCycles(), s.Levels(), seqhyper.ChipCount(n), seqhyper.PinsPerChip(), rsw.ChipCount())
	}
	fmt.Fprintln(w, "tradeoff: tiny chips and full sorting, at the cost of 3 lg n setup cycles and lg n")
	fmt.Fprintln(w, "registered latency, versus the combinational partial concentrators' single-cycle paths.")

	fmt.Fprintln(w, "registered gate-level realization (pipelined rank unit + wave-latched butterfly):")
	fmt.Fprintf(w, "%8s %14s %18s %12s %14s\n", "n", "clock depth", "comb chip depth", "registers", "setup+latency")
	for _, n := range []int{16, 64} {
		r, err := seqhyper.BuildRegistered(n)
		if err != nil {
			return err
		}
		clk, err := r.ClockPeriodDepth()
		if err != nil {
			return err
		}
		comb, err := hyper.BuildNetlist(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %14d %18d %12d %11d+%d\n",
			n, clk, comb.Net.Depth(), r.Registers(), r.SetupLatency(), r.StreamLatency())
	}
	fmt.Fprintln(w, "the clock period is set by one pipeline stage, not the whole datapath —")
	fmt.Fprintln(w, "the registered design clocks faster but pays registers and multi-cycle setup.")
	return nil
}

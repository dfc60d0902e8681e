package bench

import (
	"fmt"
	"io"
	"math/rand"

	"concentrators/internal/adversary"
	"concentrators/internal/bitvec"
	"concentrators/internal/core"
	"concentrators/internal/hyper"
	"concentrators/internal/layout"
	"concentrators/internal/mesh"
	"concentrators/internal/nearsort"
	"concentrators/internal/switchsim"
	"concentrators/internal/workload"
)

// --- T1 ---------------------------------------------------------------------

func runTable1(w io.Writer) error {
	section(w, "T1", "Table 1")
	for _, n := range []int{256, 1024, 4096, 16384, 65536} {
		m := n / 2
		rows, err := layout.Table1(n, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "n = %d, m = %d\n%s\n", n, m, layout.FormatTable1(rows))
	}
	return nil
}

// --- F1 ---------------------------------------------------------------------

func runLemma1(w io.Writer) error {
	section(w, "F1", "Lemma 1 structure")
	// Exhaustive check for n ≤ 14, randomized for larger n: for every
	// vector, the Lemma 1 structure holds at ε = nearsortedness and the
	// dirty window never exceeds 2ε.
	for _, n := range []int{8, 12, 14} {
		count, pattern, err := workload.Exhaustive(n)
		if err != nil {
			return err
		}
		worstDirty, worstEps := 0, 0
		for i := 0; i < count; i++ {
			v := pattern(i)
			eps := v.Nearsortedness()
			if err := nearsort.CheckLemma1(v, eps); err != nil {
				return fmt.Errorf("n=%d pattern %d: %w", n, i, err)
			}
			if d := v.DirtyLen(); d > worstDirty {
				worstDirty = d
			}
			if eps > worstEps {
				worstEps = eps
			}
		}
		fmt.Fprintf(w, "n=%4d exhaustive (%d patterns): worst dirty window %d ≤ 2·worst ε %d ✓\n",
			n, count, worstDirty, 2*worstEps)
	}
	rng := rand.New(rand.NewSource(101))
	for _, n := range []int{256, 1024, 4096} {
		for trial := 0; trial < 200; trial++ {
			v := (workload.Bernoulli{Load: rng.Float64()}).Pattern(rng, n)
			if err := nearsort.CheckLemma1(v, v.Nearsortedness()); err != nil {
				return fmt.Errorf("n=%d random: %w", n, err)
			}
		}
		fmt.Fprintf(w, "n=%4d randomized (200 patterns): Lemma 1 structure holds ✓\n", n)
	}
	return nil
}

// --- F2 ---------------------------------------------------------------------

func runFig2(w io.Writer) error {
	section(w, "F2", "converse counterexample")
	cases := []nearsort.Fig2Params{
		{N: 32, M: 16, Eps: 2, K: 16},
		{N: 64, M: 24, Eps: 3, K: 24},
		{N: 128, M: 32, Eps: 4, K: 40},
	}
	for _, p := range cases {
		v, err := nearsort.Fig2Counterexample(p)
		if err != nil {
			return err
		}
		eps := v.Nearsortedness()
		fmt.Fprintf(w, "n=%d m=%d ε=%d k=%d: output carries m−ε=%d messages in the prefix (legal partial concentration) "+
			"but is only %d-nearsorted (> ε) → converse of Lemma 2 fails ✓\n",
			p.N, p.M, p.Eps, p.K, p.M-p.Eps, eps)
		if eps <= p.Eps {
			return fmt.Errorf("counterexample broken: %d ≤ %d", eps, p.Eps)
		}
	}
	return nil
}

// --- F3 / F6: the figure scenarios ------------------------------------------

func runFig3(w io.Writer) error {
	section(w, "F3", "Revsort switch, n=64, m=28")
	sw, err := core.NewRevsortSwitch(64, 28)
	if err != nil {
		return err
	}
	pkg, err := layout.RevsortPackage(64, 28)
	if err != nil {
		return err
	}
	fmt.Fprint(w, pkg.String())
	return figureScenario(w, sw, 24, 103)
}

func runFig6(w io.Writer) error {
	section(w, "F6", "Columnsort switch, r=8 s=4, m=18")
	sw, err := core.NewColumnsortSwitch(8, 4, 18)
	if err != nil {
		return err
	}
	pkg, err := layout.ColumnsortPackage(8, 4, 18)
	if err != nil {
		return err
	}
	fmt.Fprint(w, pkg.String())
	return figureScenario(w, sw, 14, 104)
}

func figureScenario(w io.Writer, sw core.Concentrator, k int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	routedHist := map[int]int{}
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		var msgs []switchsim.Message
		for _, in := range rng.Perm(sw.Inputs())[:k] {
			msgs = append(msgs, switchsim.NewMessage(in, []byte{byte(in)}))
		}
		res, err := switchsim.Run(sw, msgs)
		if err != nil {
			return err
		}
		if err := switchsim.CheckGuarantee(sw, msgs, res); err != nil {
			return err
		}
		routedHist[len(res.Delivered)]++
	}
	fmt.Fprintf(w, "  %d random %d-message patterns, bit-serial streamed; delivered histogram:\n", trials, k)
	for d := 0; d <= k; d++ {
		if c := routedHist[d]; c > 0 {
			fmt.Fprintf(w, "    %2d/%d delivered: %d patterns\n", d, k, c)
		}
	}
	return nil
}

// --- F4 / F7 / F8: packaging scaling ----------------------------------------

func runFig4(w io.Writer) error {
	section(w, "F4", "Revsort 3D packaging")
	var prevN int
	var prevV float64
	for _, n := range []int{64, 256, 1024, 4096, 16384, 65536} {
		pkg, err := layout.RevsortPackage(n, n/2)
		if err != nil {
			return err
		}
		line := fmt.Sprintf("n=%6d: stacks=%d boards/stack=%d chips=%d maxpins=%d volume=%.0f",
			n, len(pkg.Stacks), pkg.Stacks[0].Boards, pkg.TotalChips(), pkg.MaxPins(), pkg.Volume3D())
		if prevN != 0 {
			line += fmt.Sprintf("  (exponent vs n=%d: %.3f, paper: 1.5)", prevN,
				layout.VolumeExponent(prevN, prevV, n, pkg.Volume3D()))
		}
		fmt.Fprintln(w, line)
		prevN, prevV = n, pkg.Volume3D()
	}
	return nil
}

func runFig7(w io.Writer) error {
	section(w, "F7", "Columnsort 3D packaging")
	fmt.Fprintln(w, "(β is realized by rounding lg r to an integer, so the EFFECTIVE β per n")
	fmt.Fprintln(w, " wobbles; the scaling exponent is therefore fit over the whole n range)")
	for _, beta := range []float64{0.5, 0.625, 0.75} {
		sizes := []int{256, 1024, 4096, 16384, 65536}
		var firstN, lastN int
		var firstV, lastV float64
		sumBeta := 0.0
		for _, n := range sizes {
			r, s, err := core.ShapeForBeta(n, beta)
			if err != nil {
				return err
			}
			pkg, err := layout.ColumnsortPackage(r, s, n/2)
			if err != nil {
				return err
			}
			effBeta := float64(lg(r)) / float64(lg(n))
			sumBeta += effBeta
			fmt.Fprintf(w, "β=%.3f n=%6d (r=%5d s=%4d, β_eff=%.3f): chips=%d connectors=%d maxpins=%d volume=%.0f\n",
				beta, n, r, s, effBeta, pkg.TotalChips(), pkg.Connectors, pkg.MaxPins(), pkg.Volume3D())
			if firstN == 0 {
				firstN, firstV = n, pkg.Volume3D()
			}
			lastN, lastV = n, pkg.Volume3D()
		}
		avgBeta := sumBeta / float64(len(sizes))
		fmt.Fprintf(w, "  fitted volume exponent over n∈[%d,%d]: %.3f (paper: 1+β = %.3f at mean β_eff %.3f)\n",
			firstN, lastN, layout.VolumeExponent(firstN, firstV, lastN, lastV), 1+avgBeta, avgBeta)
	}
	return nil
}

func runFig8(w io.Writer) error {
	section(w, "F8", "transposer volume")
	for _, wires := range []int{2, 4, 8, 16, 32, 64} {
		fmt.Fprintf(w, "w=%3d wires: volume %.0f (= w², paper: Θ(w²))\n", wires, layout.TransposerVolume(wires))
	}
	return nil
}

// --- F5: dirty rows ----------------------------------------------------------

func runDirtyRows(w io.Writer) error {
	section(w, "F5", "Algorithm 1 dirty rows")
	rng := rand.New(rand.NewSource(105))
	for _, side := range []int{4, 8, 16, 32, 64, 128} {
		n := side * side
		bound := mesh.Algorithm1DirtyBound(n)
		worst := 0
		gens := append(workload.AdversarialSuite(), workload.Generator(workload.Bernoulli{Load: 0.5}))
		for _, g := range gens {
			for trial := 0; trial < 60; trial++ {
				v := g.Pattern(rng, n)
				m, err := mesh.FromRowMajor(v, side, side)
				if err != nil {
					return err
				}
				if err := mesh.Algorithm1(m); err != nil {
					return err
				}
				if d := m.DirtyRows(); d > worst {
					worst = d
				}
			}
		}
		status := "✓"
		if worst > bound {
			status = "✗ VIOLATION"
		}
		fmt.Fprintf(w, "n=%6d (√n=%3d): worst dirty rows %2d, paper bound %2d %s\n", n, side, worst, bound, status)
		if worst > bound {
			return fmt.Errorf("dirty-row bound violated at n=%d", n)
		}
	}
	return nil
}

// --- T3 / T4: load ratios ------------------------------------------------------

func runTheorem3(w io.Writer) error {
	section(w, "T3", "Revsort load ratio")
	rng := rand.New(rand.NewSource(106))
	for _, n := range []int{256, 1024, 4096} {
		m := n / 2
		sw, err := core.NewRevsortSwitch(n, m)
		if err != nil {
			return err
		}
		if err := loadRatioReport(w, sw, rng); err != nil {
			return err
		}
	}
	return nil
}

func runTheorem4(w io.Writer) error {
	section(w, "T4", "Columnsort load ratio")
	rng := rand.New(rand.NewSource(107))
	for _, cfg := range [][2]int{{64, 4}, {128, 8}, {512, 8}, {256, 16}} {
		r, s := cfg[0], cfg[1]
		sw, err := core.NewColumnsortSwitch(r, s, r*s/2)
		if err != nil {
			return err
		}
		if err := loadRatioReport(w, sw, rng); err != nil {
			return err
		}
	}
	return nil
}

func loadRatioReport(w io.Writer, sw core.Concentrator, rng *rand.Rand) error {
	n, m := sw.Inputs(), sw.Outputs()
	var patterns []*bitvec.Vector
	gens := append(workload.AdversarialSuite(),
		workload.Generator(workload.Bernoulli{Load: 0.3}),
		workload.Generator(workload.Bernoulli{Load: 0.6}),
		workload.Generator(workload.Bernoulli{Load: 0.9}),
		workload.Generator(workload.FixedCount{K: core.Threshold(sw)}),
	)
	for _, g := range gens {
		patterns = append(patterns, workload.Collect(g, rng, n, 40)...)
	}
	worst, err := nearsort.WorstLoadRatio(sw.Route, m, patterns)
	if err != nil {
		return err
	}
	// Adversarial hill climbing probes much harder than sampling.
	attack, err := adversary.WorstPattern(sw, rng, 4, 250)
	if err != nil {
		return err
	}
	if err := adversary.VerifyAgainstBound(sw, attack); err != nil {
		return err
	}
	if attack.Ratio < worst {
		worst = attack.Ratio
	}
	bound := core.LoadRatio(sw)
	status := "✓"
	if worst < bound {
		status = "✗ VIOLATION"
	}
	fmt.Fprintf(w, "%-12s n=%6d m=%6d ε=%5d: bound α=%.4f, worst sampled/attacked %.4f "+
		"(adversary found %.4f in %d evals) over %d patterns %s\n",
		sw.Name(), n, m, sw.EpsilonBound(), bound, worst, attack.Ratio, attack.Evaluations,
		len(patterns), status)
	if worst < bound {
		return fmt.Errorf("load ratio bound violated for %s", sw.Name())
	}
	return nil
}

// --- D1: delays ----------------------------------------------------------------

func runDelays(w io.Writer) error {
	section(w, "D1", "gate delays")
	fmt.Fprintln(w, "single chip (CL86 model): 2 lg n + pads")
	for _, n := range []int{16, 64, 256, 1024} {
		sw, err := core.NewPerfectSwitch(n, n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  n=%5d: %3d delays (2 lg n = %d)\n", n, sw.GateDelays(), 2*lg(n))
	}
	fmt.Fprintln(w, "gate-level netlist depth (prefix+banyan realization, Θ(lg n) with larger constant):")
	for _, n := range []int{16, 64, 256} {
		nl, err := hyper.BuildNetlist(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  n=%5d: depth %3d, %7d gates (lg n = %d)\n",
			n, nl.Net.Depth(), nl.Net.GateCount(), lg(n))
	}
	fmt.Fprintln(w, "Revsort switch: 3 lg n + O(1)")
	for _, n := range []int{64, 256, 1024, 4096} {
		sw, err := core.NewRevsortSwitch(n, n/2)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  n=%5d: %3d delays (3 lg n = %d)\n", n, sw.GateDelays(), 3*lg(n))
	}
	fmt.Fprintln(w, "Columnsort switch: 4β lg n + O(1)")
	for _, beta := range []float64{0.5, 0.625, 0.75} {
		for _, n := range []int{256, 4096, 65536} {
			sw, err := core.NewColumnsortSwitchBeta(n, n/2, beta)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  β=%.3f n=%6d: %3d delays (4β lg n = %.0f)\n",
				beta, n, sw.GateDelays(), 4*beta*float64(lg(n)))
		}
	}
	return nil
}

// --- S6a / S6b -------------------------------------------------------------------

func runFullRevsort(w io.Writer) error {
	section(w, "S6a", "full-Revsort hyperconcentrator")
	rng := rand.New(rand.NewSource(108))

	// The Schnorr–Shamir convergence premise: ⌈lg lg √n⌉ phases leave
	// ≤ 8 dirty rows.
	fmt.Fprintln(w, "phase convergence (worst dirty rows over 100 random matrices; §6 claims ≤8 at p=⌈lg lg √n⌉):")
	for _, side := range []int{16, 32, 64, 128} {
		need := mesh.RevsortPhaseCount(side)
		line := fmt.Sprintf("  √n=%3d (needs p=%d):", side, need)
		for p := 1; p <= need+1; p++ {
			worst := 0
			for trial := 0; trial < 100; trial++ {
				m, err := mesh.FromRowMajor((workload.Bernoulli{Load: 0.5}).Pattern(rng, side*side), side, side)
				if err != nil {
					return err
				}
				d, err := mesh.DirtyRowsAfterPhases(m, p)
				if err != nil {
					return err
				}
				if d > worst {
					worst = d
				}
			}
			line += fmt.Sprintf("  p=%d→%d", p, worst)
			if p == need && worst > 8 {
				return fmt.Errorf("eight-row claim violated at side %d: %d", side, worst)
			}
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		sw, err := core.NewFullRevsortHyper(n, n)
		if err != nil {
			return err
		}
		maxStages := 0
		for trial := 0; trial < 30; trial++ {
			v := (workload.Bernoulli{Load: rng.Float64()}).Pattern(rng, n)
			out, err := sw.Route(v)
			if err != nil {
				return err
			}
			k := v.Count()
			for i, o := range out {
				if v.Get(i) != (o >= 0 && o < k) {
					return fmt.Errorf("n=%d: hyperconcentration violated", n)
				}
			}
			if sw.StagesLastRoute() > maxStages {
				maxStages = sw.StagesLastRoute()
			}
		}
		pkg, err := layout.FullRevsortPackage(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "n=%6d: chips traversed %2d (budget; measured worst %2d; paper 2 lg lg n + 4 = %d), "+
			"chips %5d, volume %.2e, delays %d\n",
			n, sw.ChipsTraversed(), maxStages, 2*lg(lg(n))+4, pkg.TotalChips(), pkg.Volume3D(), sw.GateDelays())
	}
	return nil
}

func runFullColumnsort(w io.Writer) error {
	section(w, "S6b", "full-Columnsort hyperconcentrator")
	rng := rand.New(rand.NewSource(109))
	for _, cfg := range [][2]int{{32, 4}, {128, 8}, {512, 8}, {512, 16}} {
		r, s := cfg[0], cfg[1]
		n := r * s
		sw, err := core.NewFullColumnsortHyper(r, s, n)
		if err != nil {
			return err
		}
		for trial := 0; trial < 30; trial++ {
			v := (workload.Bernoulli{Load: rng.Float64()}).Pattern(rng, n)
			out, err := sw.Route(v)
			if err != nil {
				return err
			}
			k := v.Count()
			for i, o := range out {
				if v.Get(i) != (o >= 0 && o < k) {
					return fmt.Errorf("r=%d s=%d: hyperconcentration violated", r, s)
				}
			}
		}
		pkg, err := layout.FullColumnsortPackage(r, s)
		if err != nil {
			return err
		}
		beta := float64(lg(r)) / float64(lg(n))
		fmt.Fprintf(w, "r=%4d s=%3d (n=%6d, β=%.2f): 4 chips traversed, %d delays (8β lg n = %.0f), chips %d, volume %.2e\n",
			r, s, n, beta, sw.GateDelays(), 8*beta*float64(lg(n)), pkg.TotalChips(), pkg.Volume3D())
	}
	return nil
}

// --- X1: rotation ablation --------------------------------------------------------

func runRotationAblation(w io.Writer) error {
	section(w, "X1", "rotation ablation")
	rng := rand.New(rand.NewSource(110))
	side := 32
	n := side * side
	q := lg(side)
	rotations := []struct {
		name string
		fn   func(row int) int
	}{
		{"rev(i) (paper)", func(i int) int { return mesh.Rev(i, q) }},
		{"identity (no rotation)", func(i int) int { return 0 }},
		{"linear i", func(i int) int { return i }},
		{"constant √n/2", func(i int) int { return side / 2 }},
		{"random", nil}, // handled specially
	}
	randRot := make([]int, side)
	for i := range randRot {
		randRot[i] = rng.Intn(side)
	}
	fmt.Fprintf(w, "√n=%d, worst dirty rows after sortC,sortR,rotate,sortC over random+adversarial patterns (paper bound for rev: %d):\n",
		side, mesh.Algorithm1DirtyBound(n))
	for _, rot := range rotations {
		fn := rot.fn
		if fn == nil {
			fn = func(i int) int { return randRot[i] }
		}
		worst := 0
		gens := append(workload.AdversarialSuite(), workload.Generator(workload.Bernoulli{Load: 0.5}))
		for _, g := range gens {
			for trial := 0; trial < 40; trial++ {
				v := g.Pattern(rng, n)
				m, err := mesh.FromRowMajor(v, side, side)
				if err != nil {
					return err
				}
				m.SortColumns()
				m.SortRows()
				for i := 0; i < side; i++ {
					m.RotateRowRight(i, fn(i))
				}
				m.SortColumns()
				if d := m.DirtyRows(); d > worst {
					worst = d
				}
			}
		}
		fmt.Fprintf(w, "  %-24s worst dirty rows %3d\n", rot.name, worst)
	}
	return nil
}

// --- X2: β sweep -------------------------------------------------------------------

func runBetaSweep(w io.Writer) error {
	section(w, "X2", "β continuum")
	for _, n := range []int{4096, 65536} {
		rows, err := layout.BetaSweep(n, n/2)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "n=%d, m=%d:\n%8s %12s %8s %8s %10s %8s %14s\n",
			n, n/2, "β", "pins/chip", "chips", "ε", "load", "delays", "volume")
		for _, r := range rows {
			fmt.Fprintf(w, "%8.3f %12d %8d %8d %10.4f %8d %14.0f\n",
				r.Beta, r.PinsPerChip, r.ChipCount, r.Epsilon, r.LoadRatio, r.GateDelays, r.Volume)
		}
	}
	return nil
}

// --- X3: load sweep -----------------------------------------------------------------

func runLoadSweep(w io.Writer) error {
	section(w, "X3", "delivered fraction vs offered load")
	rng := rand.New(rand.NewSource(111))
	n := 1024
	m := n / 2
	switches := []core.Concentrator{}
	if sw, err := core.NewPerfectSwitch(n, m); err == nil {
		switches = append(switches, sw)
	}
	if sw, err := core.NewRevsortSwitch(n, m); err == nil {
		switches = append(switches, sw)
	}
	if sw, err := core.NewColumnsortSwitchBeta(n, m, 0.5); err == nil {
		switches = append(switches, sw)
	}
	if sw, err := core.NewColumnsortSwitchBeta(n, m, 0.75); err == nil {
		switches = append(switches, sw)
	}
	fmt.Fprintf(w, "n=%d m=%d; rows: offered load → delivered fraction (of min(k,m))\n%-24s", n, m, "design")
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0}
	for _, l := range loads {
		fmt.Fprintf(w, "%8.2f", l)
	}
	fmt.Fprintln(w)
	for _, sw := range switches {
		fmt.Fprintf(w, "%-24s", sw.Name()+betaSuffix(sw))
		for _, load := range loads {
			frac, err := deliveredFraction(sw, rng, load, 30)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%8.4f", frac)
		}
		fmt.Fprintln(w)
	}

	// Crossover view: exact-k traffic swept across each switch's own
	// guarantee threshold αm — the precise point where the paper says
	// shedding may begin.
	fmt.Fprintf(w, "\ncrossover (exact k messages, k as a multiple of each switch's own αm):\n%-24s", "design")
	factors := []float64{0.5, 0.8, 0.95, 1.0, 1.2, 1.5, 2.0}
	for _, f := range factors {
		fmt.Fprintf(w, "%8.2f", f)
	}
	fmt.Fprintln(w, "  ← k/αm")
	for _, sw := range switches {
		th := core.Threshold(sw)
		if th == 0 {
			continue // vacuous bound: no meaningful crossover axis
		}
		fmt.Fprintf(w, "%-24s", sw.Name()+betaSuffix(sw))
		for _, f := range factors {
			k := int(f * float64(th))
			if k < 1 {
				k = 1
			}
			if k > sw.Inputs() {
				k = sw.Inputs()
			}
			total, delivered := 0, 0
			for trial := 0; trial < 30; trial++ {
				v := (workload.FixedCount{K: k}).Pattern(rng, sw.Inputs())
				out, err := sw.Route(v)
				if err != nil {
					return err
				}
				for _, o := range out {
					if o >= 0 {
						delivered++
					}
				}
				d := k
				if m := sw.Outputs(); m < d {
					d = m
				}
				total += d
			}
			fmt.Fprintf(w, "%8.4f", float64(delivered)/float64(total))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(each switch delivers 1.0000 up to its own αm — the guarantee is exact — and")
	fmt.Fprintln(w, " keeps delivering essentially everything beyond it on random traffic)")
	return nil
}

func betaSuffix(sw core.Concentrator) string {
	if c, ok := sw.(*core.ColumnsortSwitch); ok {
		r, s := c.Shape()
		return fmt.Sprintf("(r=%d,s=%d)", r, s)
	}
	return ""
}

func deliveredFraction(sw core.Concentrator, rng *rand.Rand, load float64, trials int) (float64, error) {
	total, delivered := 0, 0
	g := workload.Bernoulli{Load: load}
	for trial := 0; trial < trials; trial++ {
		v := g.Pattern(rng, sw.Inputs())
		k := v.Count()
		if k == 0 {
			continue
		}
		out, err := sw.Route(v)
		if err != nil {
			return 0, err
		}
		for _, o := range out {
			if o >= 0 {
				delivered++
			}
		}
		if k > sw.Outputs() {
			k = sw.Outputs()
		}
		total += k
	}
	if total == 0 {
		return 1, nil
	}
	return float64(delivered) / float64(total), nil
}

// --- X4 --------------------------------------------------------------------------

func runTwoStageReach(w io.Writer) error {
	section(w, "X4", "two-stage reach")
	fmt.Fprintln(w, "given p pins/chip, largest n reachable with two chip stages (Columnsort construction),")
	fmt.Fprintln(w, "keeping ε ≤ m/2 (paper: f(p) = p^{2−δ} achievable; open whether f(p) = Ω(p²)):")
	for _, p := range []int{32, 64, 128, 256, 512, 1024} {
		n, r, s := layout.TwoStageReach(p, 0.5)
		fmt.Fprintf(w, "  p=%5d: n=%8d (r=%5d, s=%4d), n/p² = %.4f\n", p, n, r, s, float64(n)/float64(p*p))
	}
	return nil
}

func lg(n int) int {
	l := 0
	for (1 << uint(l)) < n {
		l++
	}
	return l
}

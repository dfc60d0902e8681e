// Package bench is the experiment harness: one experiment per table or
// figure of the paper (plus ablations), each regenerating the
// corresponding rows/series with this library's implementations. The
// experiments are deterministic (fixed seeds) and write textual reports
// in the paper's shape; bench_test.go exposes each as a testing.B
// benchmark and cmd/concbench as a CLI.
package bench

import (
	"fmt"
	"io"
)

// Experiment is one reproducible table/figure regeneration.
type Experiment struct {
	// ID is the index key from DESIGN.md (e.g. "T1", "F4", "X2").
	ID string
	// Title describes the paper artifact.
	Title string
	// Run writes the regenerated rows/series to w.
	Run func(w io.Writer) error
}

// experiments is every experiment, sorted by ID.
var experiments = []Experiment{
	{ID: "D1", Title: "Delay claims: 2 lg n, 3 lg n + O(1), 4β lg n + O(1)", Run: runDelays},
	{ID: "D2", Title: "Gate-level composition: flat switch netlists and the hardwired barrel shifter", Run: runGateLevel},
	{ID: "D3", Title: "Formal verification: BDD proofs of the chip netlist and optimizer", Run: runFormal},
	{ID: "F1", Title: "Fig. 1 / Lemma 1: ε-nearsorted sequence structure", Run: runLemma1},
	{ID: "F2", Title: "Fig. 2: converse of the key lemma fails", Run: runFig2},
	{ID: "F3", Title: "Fig. 3: 2D Revsort layout, n=64 m=28, 24 messages", Run: runFig3},
	{ID: "F4", Title: "Fig. 4: 3D Revsort packaging and Θ(n^{3/2}) volume", Run: runFig4},
	{ID: "F5", Title: "§4 substrate: Algorithm 1 dirty rows ≤ 2⌈n^{1/4}⌉−1", Run: runDirtyRows},
	{ID: "F6", Title: "Fig. 6: 2D Columnsort layout, r=8 s=4 m=18, 14 messages", Run: runFig6},
	{ID: "F7", Title: "Fig. 7: 3D Columnsort packaging and Θ(n^{1+β}) volume", Run: runFig7},
	{ID: "F8", Title: "Fig. 8: wire transposer volume Θ(w²)", Run: runFig8},
	{ID: "S6a", Title: "§6: full-Revsort multichip hyperconcentrator", Run: runFullRevsort},
	{ID: "S6b", Title: "§6: full-Columnsort multichip hyperconcentrator", Run: runFullColumnsort},
	{ID: "T1", Title: "Table 1: resource measures, Revsort vs Columnsort β∈{1/2,5/8,3/4}", Run: runTable1},
	{ID: "T3", Title: "Theorem 3: Revsort switch load ratio 1−O(n^{3/4}/m)", Run: runTheorem3},
	{ID: "T4", Title: "Theorem 4: Columnsort switch load ratio 1−(s−1)²/m", Run: runTheorem4},
	{ID: "X1", Title: "Ablation: rev(i) rotation vs identity/constant/random", Run: runRotationAblation},
	{ID: "X10", Title: "§6 closing question: Lemma 2 applied to a non-mesh ε-nearsorter (truncated bitonic)", Run: runTruncatedNearsorter},
	{ID: "X11", Title: "§1 motivation: naive hyperconcentrator partitioning Ω((n/p)²) vs partial concentrators Θ(n/p)", Run: runPartitioningCost},
	{ID: "X12", Title: "Application: Knockout switch — per-output N-to-L concentrators, loss vs L", Run: runKnockout},
	{ID: "X2", Title: "Ablation: β continuum tradeoff", Run: runBetaSweep},
	{ID: "X3", Title: "Throughput: delivered fraction vs offered load", Run: runLoadSweep},
	{ID: "X4", Title: "§6 open question: two-stage reach f(p)", Run: runTwoStageReach},
	{ID: "X5", Title: "Price of oblivious control: switch vs omniscient (max-flow) routing", Run: runObliviousPrice},
	{ID: "X6", Title: "§1 baseline: sequential prefix+butterfly hyperconcentrator", Run: runSeqHyper},
	{ID: "X7", Title: "Design-choice ablation: bitonic sorting network vs CL86 hyperconcentrator chip", Run: runBitonicBaseline},
	{ID: "X8", Title: "§1 congestion control: drop vs resend vs buffer vs misroute under rising load", Run: runCongestionPolicies},
	{ID: "X9", Title: "§2 lineage: graph concentrators (Pinsker) vs constructive switches", Run: runGraphConcentrators},
}

// All returns every experiment sorted by ID.
func All() []Experiment { return experiments }

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

func section(w io.Writer, id, title string) {
	fmt.Fprintf(w, "=== %s: %s ===\n", id, title)
}

package main

import (
	"strings"
	"testing"

	"concentrators/cmd/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestGoldenCLI replays the concbench corpus: every experiment (no
// flags), the experiment list, two single experiments, an unknown flag
// (exit 1) and -h (exit 0). The package doc's -bench examples are left
// out: the perf suite prints timings, which vary from run to run. Run
// with -update to re-record.
func TestGoldenCLI(t *testing.T) {
	clitest.Corpus{
		Command: "concbench",
		Lines:   []string{"", "-list", "-run F3", "-run T1", "-bogus", "-h"},
		Skip:    func(example string) bool { return strings.Contains(example, "-bench") },
	}.Replay(t)
}

package main

import (
	"testing"

	"concentrators/cmd/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// cliCases are the corpus command lines: the thirteen usage examples
// of the package doc, which each exit 0 (the first runs plain pooled
// traffic, no fault of any kind); -seed 3, which exits 2 because
// rounds 166 and 167 regress after the round-166 kill of replica 1
// while replica 0 carries the stuck-output chip fault injected at round
// 119; two usage errors, an unknown flag among them, which exit 1; and
// -h, which exits 0.
func cliCases() []string {
	return []string{
		"-faults 0 -kills 0",
		"-switch columnsort -n 256 -m 128 -beta 0.75 -replicas 3 -rounds 200 -faults 4 -kills 2",
		"-switch revsort -n 1024 -m 512 -replicas 2 -seed 1987 -kills 1 -verbose",
		"-replicas 4 -faults 6 -kills 3 -scan-latency-jitter",
		"-replicas 3 -faults 0 -kills 0 -stalls 5 -deadline 5 -hedge-quantile 0.9",
		"-replicas 2 -faults 0 -kills 0 -surges 3",
		"-replicas 3 -faults 0 -kills 0 -crashes 4 -drains 2",
		"-replicas 3 -crashes 4 -unjournaled -json",
		"-replicas 3 -faults 0 -kills 0 -partitions 4 -lease-rounds 8",
		"-replicas 3 -faults 0 -kills 0 -partitions 4 -asym -crashes 2",
		"-replicas 3 -faults 0 -kills 0 -partitions 4 -unfenced -json",
		"-replicas 3 -faults 0 -kills 0 -byzantine 4",
		"-replicas 3 -faults 0 -kills 0 -byzantine 4 -unverified -json",
		"-seed 3",
		"-replicas 1 -partitions 2",
		"-bogus",
		"-h",
	}
}

// TestGoldenCLI replays the concpool corpus, which must hold every usage
// example of the package doc. Run with -update to re-record.
func TestGoldenCLI(t *testing.T) {
	clitest.Corpus{Command: "concpool", Lines: cliCases()}.Replay(t)
}

package main

import (
	"testing"

	"concentrators/cmd/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestGoldenCLI replays the concviz corpus: the package doc's usage
// examples, an unknown flag (exit 1) and -h (exit 0). Run with -update
// to re-record.
func TestGoldenCLI(t *testing.T) {
	clitest.Corpus{Command: "concviz", Lines: []string{
		"-figure 3",
		"-figure 6",
		"-figure 3 -k 10 -seed 7",
		"-bogus",
		"-h",
	}}.Replay(t)
}

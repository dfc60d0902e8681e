package main

import (
	"testing"

	"concentrators/cmd/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestGoldenCLI replays the conclayout corpus: the package doc's usage
// examples, an unknown flag (exit 1) and -h (exit 0). Run with -update
// to re-record.
func TestGoldenCLI(t *testing.T) {
	clitest.Corpus{Command: "conclayout", Lines: []string{
		"-design revsort -n 64 -m 28",
		"-design columnsort -r 8 -s 4 -m 18",
		"-design all -n 4096",
		"-bogus",
		"-h",
	}}.Replay(t)
}

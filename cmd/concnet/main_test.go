package main

import (
	"testing"

	"concentrators/cmd/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestGoldenCLI replays the concnet corpus: the package doc's usage
// examples (each command runs in a fresh temporary directory, where
// -dot writes its file), an unknown flag (exit 1) and -h (exit 0). Run
// with -update to re-record.
func TestGoldenCLI(t *testing.T) {
	clitest.Corpus{Command: "concnet", Lines: []string{
		"-circuit hyper -n 16",
		"-circuit columnsort -r 8 -s 4 -m 18 -opt",
		"-circuit shifter -n 8 -dot shifter.dot",
		"-circuit shifter-hardwired -n 8 -amount 3",
		"-bogus",
		"-h",
	}}.Replay(t)
}

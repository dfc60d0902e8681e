// Package cli holds the exit-code contract and output plumbing the
// commands share, so they cannot drift: one exit-code table, which
// every command's usage text prints, one command-line parser, and the
// JSON emitter of concsim and concpool.
package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

// The shared exit-code contract of all six commands. Every guarantee
// the simulators check — delivery contracts, deadline SLOs,
// conservation laws, fencing — and concbench's perf gate report a
// breach the same way, so CI and scripts can gate on the code without
// knowing which command (or which guarantee) ran. conclayout, concnet
// and concviz check no guarantee, so they exit only 0 or 1.
const (
	// ExitOK: the run completed with every checked guarantee intact.
	ExitOK = 0
	// ExitUsage: a usage, construction, or configuration error before
	// (or while) the run could produce a verdict.
	ExitUsage = 1
	// ExitViolation: the run completed and observed a breach — a
	// delivery-guarantee regression, a missed deadline SLO, a broken
	// conservation law, a frame delivered under a stale fencing token,
	// or a perf-suite regression against concbench's -baseline.
	ExitViolation = 2
)

// ExitCodeTable renders the shared exit-code contract for usage text.
func ExitCodeTable() string {
	return fmt.Sprintf(`Exit status:
  %d  run completed with every checked guarantee intact
  %d  usage, construction, or configuration error
  %d  guarantee breach: delivery regression, missed deadline SLO,
     broken conservation law, a fencing-token violation, or a perf
     regression against concbench -baseline`,
		ExitOK, ExitUsage, ExitViolation)
}

// Parse parses the named command's command line. Its usage text prints
// the shared exit-code table ahead of the flag defaults. An unknown flag
// or a malformed value exits ExitUsage, not the flag package's 2, which
// the contract reserves for a guarantee breach; -h prints the usage and
// exits ExitOK.
func Parse(name string) {
	flag.CommandLine.Init(name, flag.ContinueOnError)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: %s [flags]\n\n%s\n\nFlags:\n", name, ExitCodeTable())
		flag.PrintDefaults()
	}
	switch err := flag.CommandLine.Parse(os.Args[1:]); {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(ExitOK)
	case err != nil:
		os.Exit(ExitUsage)
	}
}

// EmitJSON writes one indented machine-readable document to stdout,
// exiting ExitUsage if it cannot be encoded.
func EmitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		Fatal(ExitUsage, "%v", err)
	}
}

// Fatal prints one line to stderr and exits with the given code.
func Fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

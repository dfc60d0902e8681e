package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// cliDigests is the concpool golden corpus: for every command line in
// cliCases, the SHA-256 of the program's stdout and its exit code.
// Re-record (-update) only for an intended change of output.
const cliDigests = "testdata/cli_digests.json"

var update = flag.Bool("update", false, "rewrite the golden digests from the current code")

// asMain makes the test binary run main() instead of the tests, so a
// test can execute the command end to end, exit code included.
const asMain = "CONCPOOL_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

// runCLI executes concpool with args and returns its stdout and exit
// code.
func runCLI(t *testing.T, args string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], strings.Fields(args)...)
	cmd.Env = append(os.Environ(), asMain+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return out.Bytes(), 0
	case errors.As(err, &exit):
		return out.Bytes(), exit.ExitCode()
	default:
		t.Fatalf("concpool %s: %v", args, err)
		return nil, 0
	}
}

type cliRecord struct {
	Stdout string
	Exit   int
}

// usageExamples returns the arguments of every usage line of main.go's
// package doc: a comment line holding a tab and the command name.
func usageExamples(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	var examples []string
	for _, line := range strings.Split(doc, "\n") {
		if args, ok := strings.CutPrefix(line, "//\tconcpool "); ok {
			examples = append(examples, args)
		}
	}
	if len(examples) == 0 {
		t.Fatal("main.go's package doc has no usage examples")
	}
	return examples
}

// TestGoldenCLI replays the concpool corpus, which must hold every usage
// example of the package doc. Run with -update to re-record.
func TestGoldenCLI(t *testing.T) {
	cases := cliCases()
	for _, args := range usageExamples(t) {
		if !slices.Contains(cases, args) {
			t.Errorf("package doc example concpool %s is not a corpus line", args)
		}
	}
	got := map[string]cliRecord{}
	for _, args := range cases {
		out, code := runCLI(t, args)
		sum := sha256.Sum256(out)
		got[args] = cliRecord{hex.EncodeToString(sum[:]), code}
	}
	if *update {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cliDigests, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(cliDigests)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]cliRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", cliDigests, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d command lines, the suite runs %d", cliDigests, len(want), len(got))
	}
	for args, rec := range got {
		if w, ok := want[args]; !ok {
			t.Errorf("concpool %s: no recorded digest", args)
		} else if w != rec {
			t.Errorf("concpool %s: stdout %s exit %d, recorded stdout %s exit %d", args, rec.Stdout, rec.Exit, w.Stdout, w.Exit)
		}
	}
}

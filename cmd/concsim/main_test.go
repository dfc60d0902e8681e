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
	"regexp"
	"slices"
	"strings"
	"testing"

	"concentrators/cmd/internal/cli"
)

// cliDigests is the concsim golden corpus: for every command line in
// cliCases, the SHA-256 of the program's stdout and its exit code.
// Re-record (-update) only for an intended change of output.
const cliDigests = "testdata/cli_digests.json"

var update = flag.Bool("update", false, "rewrite the golden digests from the current code")

// asMain makes the test binary run main() instead of the tests, so a
// test can execute the command end to end, exit code included.
const asMain = "CONCSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliCases are the corpus command lines: the package doc's usage
// examples, every session policy, the overload flags, crash durability,
// fault sessions under every policy, integrity sessions, two usage
// errors (an unknown flag among them, exit 1), and -h (exit 0).
func cliCases() []string {
	rs := "-switch revsort -n 64 -m 48 -rounds 40 -seed 7 "
	cs := "-switch columnsort -n 64 -m 32 -beta 0.75 -rounds 60 -seed 5 "
	cases := []string{
		"-switch revsort -n 1024 -m 512 -load 0.4 -rounds 100",
		"-switch columnsort -n 1024 -m 512 -beta 0.75 -load 0.9",
		"-switch perfect -n 256 -m 64 -load 0.5 -payload 64",
		"-switch full-revsort -n 4096 -load 0.7",
		"-switch revsort -n 1024 -m 512 -faults 3 -mtbf 25 -scan-every 10",
		"-switch revsort -n 1024 -m 512 -ber 1e-3 -crc crc16 -arq-window 8",
		"-switch revsort -n 1024 -m 512 -ber 1e-3 -adaptive-rto -deadline 8",
		"-switch columnsort -n 256 -m 128 -policy resend -surge 4 -retry-budget 0.2 -codel-target 3 -codel-interval 6",
		rs + "-policy drop -load 0.9",
		rs + "-policy resend -load 0.9",
		rs + "-policy buffer -load 0.9",
		rs + "-policy misroute -load 0.9",
		rs + "-policy resend -load 0.9 -json",
		rs + "-policy buffer -load 0.9 -codel-target 2",
		rs + "-policy resend -load 0.5 -surge 4 -surge-shape sustained -retry-budget 0.1 -codel-target 2 -deadline 8",
		rs + "-policy resend -load 0.5 -surge 3 -surge-shape flash -deadline 2",
		cs + "-policy resend -crashes 3",
		cs + "-policy resend -crashes 3 -snapshot-every 5 -compact -json",
		cs + "-policy resend -crashes 3 -unjournaled -json",
		rs + "-ber 1e-3",
		cs + "-ber 1e-2 -crc crc8",
		rs + "-ber 1e-3 -adaptive-rto -deadline 8",
		"-switch perfect -n 64 -m 32 -faults 2",
		"-bogus",
		"-h",
	}
	for _, pol := range []string{"drop", "resend", "buffer", "misroute"} {
		for _, base := range []string{rs, cs} {
			cases = append(cases, base+"-load 0.8 -faults 5 -mtbf 12 -scan-every 7 -policy "+pol)
		}
	}
	return cases
}

// runCLI executes concsim with args and returns its stdout and exit
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
		t.Fatalf("concsim %s: %v", args, err)
		return nil, 0
	}
}

// TestSessionFlagsReachEveryMode: every session mode runs the one
// config the session flags build, so a layer flag either changes the
// run or, in a mode whose driver cannot carry the layer, exits 1.
func TestSessionFlagsReachEveryMode(t *testing.T) {
	rs := "-switch revsort -n 64 -m 48 -rounds 40 -seed 7 "
	cs := "-switch columnsort -n 64 -m 32 -beta 0.75 -rounds 60 -seed 5 "

	out, code := runCLI(t, rs+"-load 0.8 -faults 5 -mtbf 12 -scan-every 7 -policy resend -deadline 1")
	missed := regexp.MustCompile(`deadline 1 rounds: (\d+) deliveries missed`).FindSubmatch(out)
	if code != 0 || missed == nil || string(missed[1]) == "0" {
		t.Errorf("fault session with -deadline 1 (exit %d) booked no missed deadlines:\n%s", code, out)
	}

	plain, _ := runCLI(t, cs+"-policy resend -crashes 3")
	surged, code := runCLI(t, cs+"-policy resend -crashes 3 -surge 3")
	if code != 0 || bytes.Equal(plain, surged) {
		t.Errorf("durable session with -surge 3 (exit %d) printed the unsurged run:\n%s", code, surged)
	}

	for _, args := range []string{rs + "-ber 1e-3 -codel-target 2", rs + "-ber 1e-3 -policy drop"} {
		if _, code := runCLI(t, args); code != cli.ExitUsage {
			t.Errorf("concsim %s: exit %d, want %d", args, code, cli.ExitUsage)
		}
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
		if args, ok := strings.CutPrefix(line, "//\tconcsim "); ok {
			examples = append(examples, args)
		}
	}
	if len(examples) == 0 {
		t.Fatal("main.go's package doc has no usage examples")
	}
	return examples
}

// TestGoldenCLI replays the concsim corpus, which must hold every usage
// example of the package doc. Run with -update to re-record.
func TestGoldenCLI(t *testing.T) {
	cases := cliCases()
	for _, args := range usageExamples(t) {
		if !slices.Contains(cases, args) {
			t.Errorf("package doc example concsim %s is not a corpus line", args)
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
			t.Errorf("concsim %s: no recorded digest", args)
		} else if w != rec {
			t.Errorf("concsim %s: stdout %s exit %d, recorded stdout %s exit %d", args, rec.Stdout, rec.Exit, w.Stdout, w.Exit)
		}
	}
}

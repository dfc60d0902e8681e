// Package clitest is the golden-corpus harness of the commands' tests.
// A command's test binary re-executes itself as the command (Main and
// Run), and Replay checks each corpus command line's stdout digest and
// exit code against the command's testdata/cli_digests.json.
package clitest

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

// digests is the corpus file in the command's package directory.
// Re-record it (-update) only for an intended change of output.
const digests = "testdata/cli_digests.json"

var update = flag.Bool("update", false, "rewrite the golden digests from the current code")

// asMain marks a test binary that Run re-executed as the command.
const asMain = "CLITEST_AS_MAIN"

// Main runs the command's main in a test binary Run re-executed, and
// the tests otherwise. A command's TestMain calls it.
func Main(m *testing.M, main func()) {
	if os.Getenv(asMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run executes the command with args in a fresh temporary directory and
// returns its stdout and exit code.
func Run(t *testing.T, args string) ([]byte, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, strings.Fields(args)...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), asMain+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return out.Bytes(), 0
	case errors.As(err, &exit):
		return out.Bytes(), exit.ExitCode()
	}
	t.Fatalf("%s: %v", args, err)
	return nil, 0
}

// Corpus is one command's golden corpus.
type Corpus struct {
	// Command names the command. Its usage examples are the lines of
	// main.go's package doc that hold a tab and this name; each, less
	// any trailing "# …" comment, must be a corpus line unless Skip
	// (when set) reports it.
	Command string
	Lines   []string
	Skip    func(example string) bool
}

type record struct {
	Stdout string // hex SHA-256 of stdout
	Exit   int
}

// Replay runs every corpus line and compares its stdout digest and exit
// code with the recorded ones; with -update it records them instead.
func (c Corpus) Replay(t *testing.T) {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	examples := 0
	for _, line := range strings.Split(doc, "\n") {
		args, ok := strings.CutPrefix(line, "//\t"+c.Command+" ")
		if !ok {
			continue
		}
		examples++
		args, _, _ = strings.Cut(args, "#")
		if args = strings.TrimSpace(args); (c.Skip == nil || !c.Skip(args)) && !slices.Contains(c.Lines, args) {
			t.Errorf("package doc example %q is not a corpus line", c.Command+" "+args)
		}
	}
	if examples == 0 {
		t.Fatal("main.go's package doc has no usage examples")
	}

	got := map[string]record{}
	for _, args := range c.Lines {
		out, code := Run(t, args)
		sum := sha256.Sum256(out)
		got[args] = record{hex.EncodeToString(sum[:]), code}
	}
	if *update {
		js, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(digests, append(js, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digests)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]record
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", digests, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d command lines, the suite runs %d", digests, len(want), len(got))
	}
	for args, rec := range got {
		if w, ok := want[args]; !ok {
			t.Errorf("%s %s: no recorded digest", c.Command, args)
		} else if w != rec {
			t.Errorf("%s %s: stdout %s exit %d, recorded stdout %s exit %d", c.Command, args, rec.Stdout, rec.Exit, w.Stdout, w.Exit)
		}
	}
}

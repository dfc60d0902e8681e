package main

import (
	"bytes"
	"regexp"
	"testing"

	"concentrators/cmd/internal/cli"
	"concentrators/cmd/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// cliCases are the corpus command lines: the package doc's usage
// examples, every session policy, the overload flags, crash durability,
// fault sessions under every policy, integrity sessions, two waveform
// prints, two usage errors (an unknown flag among them, exit 1), and -h
// (exit 0).
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
		// Routed and idle wires with payloads past one 8-bit word, and
		// rows truncated at 64 cycles, and an empty first round.
		"-switch revsort -n 64 -m 48 -rounds 2 -seed 7 -payload 12 -wave",
		"-switch perfect -n 16 -m 8 -payload 70 -rounds 1 -wave",
		"-switch perfect -n 8 -m 4 -load 0.05 -rounds 20 -wave -seed 1",
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

// TestSessionFlagsReachEveryMode: every session mode runs the one
// config the session flags build, so a layer flag either changes the
// run or, in a mode whose driver cannot carry the layer, exits 1.
func TestSessionFlagsReachEveryMode(t *testing.T) {
	rs := "-switch revsort -n 64 -m 48 -rounds 40 -seed 7 "
	cs := "-switch columnsort -n 64 -m 32 -beta 0.75 -rounds 60 -seed 5 "

	out, code := clitest.Run(t, rs+"-load 0.8 -faults 5 -mtbf 12 -scan-every 7 -policy resend -deadline 1")
	missed := regexp.MustCompile(`deadline 1 rounds: (\d+) deliveries missed`).FindSubmatch(out)
	if code != 0 || missed == nil || string(missed[1]) == "0" {
		t.Errorf("fault session with -deadline 1 (exit %d) booked no missed deadlines:\n%s", code, out)
	}

	plain, _ := clitest.Run(t, cs+"-policy resend -crashes 3")
	surged, code := clitest.Run(t, cs+"-policy resend -crashes 3 -surge 3")
	if code != 0 || bytes.Equal(plain, surged) {
		t.Errorf("durable session with -surge 3 (exit %d) printed the unsurged run:\n%s", code, surged)
	}

	for _, args := range []string{rs + "-ber 1e-3 -codel-target 2", rs + "-ber 1e-3 -policy drop"} {
		if _, code := clitest.Run(t, args); code != cli.ExitUsage {
			t.Errorf("concsim %s: exit %d, want %d", args, code, cli.ExitUsage)
		}
	}
}

// TestGoldenCLI replays the concsim corpus, which must hold every usage
// example of the package doc. Run with -update to re-record.
func TestGoldenCLI(t *testing.T) {
	clitest.Corpus{Command: "concsim", Lines: cliCases()}.Replay(t)
}

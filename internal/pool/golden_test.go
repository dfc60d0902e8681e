package pool

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/link"
	"concentrators/internal/seedrand"
	"concentrators/internal/switchsim"
	"concentrators/internal/timing"
)

// scenarioDigests is the golden corpus: the SHA-256 of the JSON
// transcript (every RoundResult plus the final Stats) of runScenario
// under both arbiters. A refactor must replay every entry unchanged;
// re-record (-update) only for an intended change of behaviour.
const scenarioDigests = "testdata/scenario_digests.json"

// overloadDigests is the overload corpus: the SHA-256 of the
// OverloadSessionStats JSON of each run of the overload session
// fixture (runShapeSession).
const overloadDigests = "testdata/overload_digests.json"

var update = flag.Bool("update", false, "rewrite the golden digests from the current code")

// runScenario drives one pool through a fixed chaos-like schedule —
// chip faults, wire noise, stragglers, a kill/revive cycle, hedging,
// deadlines — and records every RoundResult plus the final Stats. The
// schedule and traffic derive from the seed only. The round-25 stall
// lands on replica 0, quarantined by then, unless stallActive puts it
// on the replica serving then, which makes the pool hedge. A non-nil
// after sees the pool at the end of every round.
func runScenario(t *testing.T, cfg Config, seed int64, rounds int, stallActive bool, after func(*Pool)) ([]RoundResult, Stats) {
	t.Helper()
	p := newPool(t, cfg, 4)
	stream := seedrand.NewStream(seed)
	var rrs []RoundResult
	for round := 0; round < rounds; round++ {
		switch round {
		case 5:
			if err := p.InjectFault(0, core.ChipFault{Stage: 0, Chip: 1, Mode: core.ChipDead}); err != nil {
				t.Fatal(err)
			}
		case 15:
			if err := p.InjectWireFault(1, link.WireFault{
				Stage: link.AllStages, Wire: 3,
				Mode: link.WireStuck, StuckValue: 0, From: 15, Until: 30,
			}); err != nil {
				t.Fatal(err)
			}
		case 25:
			victim := 0
			if stallActive {
				victim = p.Active()
			}
			if err := p.InjectTimingFault(victim, timing.Fault{
				Stage: link.AllStages, Wire: link.AllWires,
				Mode: timing.Constant, Delay: 4, From: 25, Until: 60,
			}); err != nil {
				t.Fatal(err)
			}
		case 40:
			if err := p.Kill(2); err != nil {
				t.Fatal(err)
			}
		case 60:
			if err := p.Revive(2); err != nil {
				t.Fatal(err)
			}
		}
		msgs := switchsim.RandomMessages(&stream, p.Inputs(), 0.6, 8)
		rr, err := p.Run(msgs)
		if err != nil {
			t.Fatal(err)
		}
		rrs = append(rrs, *rr)
		if after != nil {
			after(p)
		}
	}
	return rrs, p.Stats()
}

// legacyScenario and leasedScenario are the pool configurations the
// golden transcripts run runScenario under: the legacy arbiter with
// hedging and a deadline SLO, and the lease-fenced arbiter.
var (
	legacyScenario = Config{TripThreshold: 2, ProbeAfter: 1, HedgeQuantile: 0.9, Deadline: 3}
	leasedScenario = Config{TripThreshold: 2, ProbeAfter: 1, Lease: LeaseConfig{Rounds: 4}}
)

// TestGoldenScenarios replays the golden corpus: runScenario at legacy
// seeds 1, 7 and 1234, the same seeds with the round-25 stall on the
// serving replica (legacy-hedged, which must hedge), and leased seed 99
// must hash to the recorded transcripts. Run with -update to
// re-record.
func TestGoldenScenarios(t *testing.T) {
	got := map[string]string{}
	for _, tc := range []struct {
		name        string
		cfg         Config
		seed        int64
		stallActive bool
	}{
		{"legacy", legacyScenario, 1, false},
		{"legacy", legacyScenario, 7, false},
		{"legacy", legacyScenario, 1234, false},
		{"legacy-hedged", legacyScenario, 1, true},
		{"legacy-hedged", legacyScenario, 7, true},
		{"legacy-hedged", legacyScenario, 1234, true},
		{"leased", leasedScenario, 99, false},
	} {
		rrs, st := runScenario(t, tc.cfg, tc.seed, 80, tc.stallActive, nil)
		if tc.stallActive && st.Hedges == 0 {
			t.Errorf("%s/%d: a stall on the serving replica hedged no round", tc.name, tc.seed)
		}
		got[fmt.Sprintf("%s/%d", tc.name, tc.seed)] = digest(t, struct {
			Rounds []RoundResult
			Stats  Stats
		}{rrs, st})
	}
	checkDigests(t, scenarioDigests, got)
}

// TestGoldenOverloadSessions replays the overload corpus: the overload
// session fixture of every surge shape, open and closed loop, run for
// 300 rounds must hash to the recorded OverloadSessionStats JSON. Some
// closed-loop row must step the brownout contract back up and some row
// must end at the AIMD floor, so the corpus pins both ends of both
// control laws. Run with -update to re-record.
func TestGoldenOverloadSessions(t *testing.T) {
	got := map[string]string{}
	exited, floored := false, false
	for shape := range overloadShapes {
		for _, loop := range []string{"open", "closed"} {
			st := runShapeSession(t, shape, loop == "closed", 300)
			exited = exited || (loop == "closed" && st.Pool.BrownoutExits > 0)
			floored = floored || st.Pool.AdmitFraction == 0.1
			got[shape+"/"+loop] = digest(t, st)
		}
	}
	if !exited {
		t.Error("no closed-loop session stepped the brownout contract back up")
	}
	if !floored {
		t.Error("no session drove the AIMD admitted fraction to its 0.1 floor")
	}
	checkDigests(t, overloadDigests, got)
}

// digest returns the hex SHA-256 of v's JSON encoding.
func digest(t *testing.T, v any) string {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}

// checkDigests compares got against the corpus at path, or rewrites
// the corpus under -update.
func checkDigests(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *update {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d digests, the suite computes %d", path, len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, recorded %s", name, d, want[name])
		}
	}
}

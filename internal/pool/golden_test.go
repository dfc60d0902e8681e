package pool

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

// scenarioDigests is the golden corpus: the SHA-256 of the JSON
// transcript (every RoundResult plus the final Stats) of runScenario
// under both arbiters. A refactor must replay every entry unchanged;
// re-record (-update) only for an intended change of behaviour.
const scenarioDigests = "testdata/scenario_digests.json"

var update = flag.Bool("update", false, "rewrite the golden digests from the current code")

// TestGoldenScenarios replays the golden corpus: runScenario at legacy
// seeds 1, 7 and 1234 and leased seed 99 must hash to the recorded
// transcripts. Run with -update to re-record.
func TestGoldenScenarios(t *testing.T) {
	got := map[string]string{}
	for _, tc := range []struct {
		name string
		cfg  Config
		seed int64
	}{
		{"legacy", legacyScenario, 1},
		{"legacy", legacyScenario, 7},
		{"legacy", legacyScenario, 1234},
		{"leased", leasedScenario, 99},
	} {
		rrs, st := runScenario(t, tc.cfg, tc.seed, 80, false)
		js, err := json.Marshal(struct {
			Rounds []RoundResult
			Stats  Stats
		}{rrs, st})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(js)
		got[fmt.Sprintf("%s/%d", tc.name, tc.seed)] = hex.EncodeToString(sum[:])
	}
	if *update {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scenarioDigests, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(scenarioDigests)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", scenarioDigests, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d digests, the suite computes %d", scenarioDigests, len(want), len(got))
	}
	for name, digest := range got {
		if want[name] != digest {
			t.Errorf("%s: digest %s, recorded %s", name, digest, want[name])
		}
	}
}

package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

// reportDigests is the golden corpus: the SHA-256 of the JSON Report of
// every acceptance fixture. A refactor of the pool or the simulator
// must replay every entry unchanged; re-record (-update) only for an
// intended change of behaviour.
const reportDigests = "testdata/report_digests.json"

var update = flag.Bool("update", false, "rewrite the golden digests from the current code")

// goldenFixtures names every recorded chaos configuration: the base,
// split-brain, unfenced, byzantine, unverified-provenance and crash
// fixtures at the three acceptance seeds, plus the single-seed
// asymmetric, byzantine+crash, straggler, surge and corruption runs.
func goldenFixtures() map[string]Config {
	out := map[string]Config{}
	fixtures := map[string]func(int64) Config{
		"base":        baseConfig,
		"split-brain": splitBrainConfig,
		"unfenced": func(seed int64) Config {
			cfg := splitBrainConfig(seed)
			cfg.Crashes = 0
			cfg.Pool.Lease.Unfenced = true
			return cfg
		},
		"byzantine": byzantineConfig,
		"unverified-provenance": func(seed int64) Config {
			cfg := byzantineConfig(seed)
			cfg.UnverifiedProvenance = true
			return cfg
		},
		"crash": crashConfig,
	}
	for name, fixture := range fixtures {
		for _, seed := range []int64{7, 1987, 0xC0C0} {
			out[fmt.Sprintf("%s/%d", name, seed)] = fixture(seed)
		}
	}
	asym := splitBrainConfig(11)
	asym.AsymPartitions = true
	asym.Crashes = 0
	out["asym/11"] = asym
	byzCrash := byzantineConfig(11)
	byzCrash.Crashes = 2
	out["byzantine+crashes/11"] = byzCrash
	for _, seed := range []int64{11, 1987, 0xFADE} {
		out[fmt.Sprintf("straggler/%d", seed)] = stragglerConfig(seed)
	}
	for _, seed := range []int64{7, 99, 2026} {
		out[fmt.Sprintf("surge/%d", seed)] = surgeConfig(seed)
	}
	out["corruption/21"] = corruptionConfig(21)
	return out
}

// TestGoldenReports replays the golden corpus: each fixture's Report,
// schedule, round records, ledgers and final pool Stats included, must
// hash to its recorded digest. Run with -update to re-record.
func TestGoldenReports(t *testing.T) {
	got := map[string]string{}
	for name, cfg := range goldenFixtures() {
		rep, err := Run(buildColumnsort, mustSchedule(t, cfg), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(js)
		got[name] = hex.EncodeToString(sum[:])
	}
	checkDigests(t, reportDigests, got)
}

// checkDigests compares digests against the JSON map recorded at path,
// or rewrites the file under -update.
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
	for name, digest := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no recorded digest", name)
		} else if w != digest {
			t.Errorf("%s: digest %s, recorded %s", name, digest, w)
		}
	}
}

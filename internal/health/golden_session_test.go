package health

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/journal"
	"concentrators/internal/link"
	"concentrators/internal/overload"
	"concentrators/internal/switchsim"
	"concentrators/internal/timing"
)

// sessionDigests is the session golden corpus: the SHA-256 of the JSON
// stats of RunSession, RunDurableSession, RunFaultAwareSession and
// RunIntegritySession over a grid of policies, seeds, loads and
// switches. A refactor of the session drivers must replay every entry
// unchanged; re-record (-update) only for an intended change of
// behaviour.
const sessionDigests = "testdata/session_digests.json"

// sessionSwitch builds a fresh corpus switch: Revsort n = 64 or
// Columnsort 16×4, both with m = 48. Fault and integrity sessions leave
// state on the switch they run (live fault planes, quarantines), so
// every run gets its own.
func sessionSwitch(t *testing.T, name string) core.FaultInjectable {
	t.Helper()
	var sw core.FaultInjectable
	var err error
	switch name {
	case "revsort/64":
		sw, err = core.NewRevsortSwitch(64, 48)
	case "columnsort/16x4":
		sw, err = core.NewColumnsortSwitch(16, 4, 48)
	default:
		t.Fatalf("unknown corpus switch %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

var sessionPolicies = []switchsim.Policy{switchsim.Drop, switchsim.Resend, switchsim.Buffer, switchsim.Misroute}

// sessionBase is the corpus session shape; Resend gets the CLI's ack
// round trip of 2.
func sessionBase(pol switchsim.Policy, load float64, seed int64) switchsim.SessionConfig {
	cfg := switchsim.SessionConfig{Policy: pol, Load: load, Rounds: 40, PayloadBits: 8, Seed: seed}
	if pol == switchsim.Resend {
		cfg.AckDelay = 2
	}
	return cfg
}

func digestJSON(t *testing.T, tag string, v any) string {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}

// linkEntry is one Integrity.Links entry: encoding/json cannot key a
// map by link.LinkAddr, so the digest lists the links sorted by
// (stage, wire), in a field that shadows the map.
type linkEntry struct {
	Addr   link.LinkAddr
	Health link.LinkHealth
}

func integrityDigest(t *testing.T, tag string, st *switchsim.SessionStats) string {
	t.Helper()
	var links []linkEntry
	for a, h := range st.Integrity.Links {
		links = append(links, linkEntry{a, h})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].Addr.Stage != links[j].Addr.Stage {
			return links[i].Addr.Stage < links[j].Addr.Stage
		}
		return links[i].Addr.Wire < links[j].Addr.Wire
	})
	type integrity struct {
		switchsim.IntegrityStats
		Links []linkEntry
	}
	s := *st
	s.Integrity = nil
	return digestJSON(t, tag, struct {
		Stats     switchsim.SessionStats
		Integrity integrity
	}{s, integrity{*st.Integrity, links}})
}

// TestGoldenSessions replays the session corpus. Run with -update to
// re-record.
//
// Fault sessions are digested without RetriedDelivered, the first-try,
// retried and missed latency histograms, and FinalBacklog: the
// corpus pins every field the fault session booked when it was
// recorded, and those five it did not book.
func TestGoldenSessions(t *testing.T) {
	got := map[string]string{}
	names := []string{"revsort/64", "columnsort/16x4"}

	for _, name := range names {
		for _, pol := range sessionPolicies {
			for _, seed := range []int64{1, 7, 1987} {
				for _, load := range []float64{0.3, 0.9} {
					tag := fmt.Sprintf("session/%s/%s/seed%d/load%v", name, pol, seed, load)
					st, err := switchsim.RunSession(sessionSwitch(t, name), sessionBase(pol, load, seed))
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					got[tag] = digestJSON(t, tag, st)
				}
			}
		}
		overloads := map[string]func() switchsim.SessionConfig{
			"codel-resend": func() switchsim.SessionConfig {
				cfg := sessionBase(switchsim.Resend, 0.9, 7)
				cfg.CoDel = &overload.CoDelConfig{Target: 2, Interval: 8}
				return cfg
			},
			"codel-buffer": func() switchsim.SessionConfig {
				cfg := sessionBase(switchsim.Buffer, 0.9, 7)
				cfg.CoDel = &overload.CoDelConfig{Target: 2, Interval: 8}
				return cfg
			},
			"budget-surge-resend": func() switchsim.SessionConfig {
				cfg := sessionBase(switchsim.Resend, 0.5, 7)
				cfg.RetryBudget = &overload.RetryConfig{Budget: 0.1}
				cfg.Surge = overload.NewPlane(7)
				if err := cfg.Surge.Add(overload.Fault{Mode: overload.Sustained, Factor: 3, From: 8}); err != nil {
					t.Fatal(err)
				}
				return cfg
			},
			"deadline-flash": func() switchsim.SessionConfig {
				cfg := sessionBase(switchsim.Resend, 0.5, 7)
				cfg.Deadline = 2
				cfg.Surge = overload.NewPlane(7)
				if err := cfg.Surge.Add(overload.Fault{Mode: overload.Flash, Factor: 3, Prob: 0.35}); err != nil {
					t.Fatal(err)
				}
				return cfg
			},
		}
		for variant, build := range overloads {
			tag := fmt.Sprintf("session/%s/%s", name, variant)
			st, err := switchsim.RunSession(sessionSwitch(t, name), build())
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			got[tag] = digestJSON(t, tag, st)
		}
	}

	for _, name := range names {
		durables := map[string]switchsim.SessionConfig{
			"resend":       sessionBase(switchsim.Resend, 0.9, 5),
			"buffer-codel": sessionBase(switchsim.Buffer, 0.9, 5),
			"misroute":     sessionBase(switchsim.Misroute, 0.9, 5),
		}
		bc := durables["buffer-codel"]
		bc.CoDel = &overload.CoDelConfig{Target: 2, Interval: 8}
		durables["buffer-codel"] = bc
		for variant, cfg := range durables {
			for mode, jcfg := range map[string]journal.Config{
				"journaled":     {},
				"snap5-compact": {SnapshotEvery: 5, Compact: true},
				"unjournaled":   {Unjournaled: true},
			} {
				tag := fmt.Sprintf("durable/%s/%s/%s", name, variant, mode)
				jcfg.Crash = journal.GenerateCrashSchedule(cfg.Seed, cfg.Rounds, 4)
				st, rec, err := switchsim.RunDurableSession(sessionSwitch(t, name), cfg, jcfg)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				got[tag] = digestJSON(t, tag, struct {
					Stats    *switchsim.SessionStats
					Recovery *journal.RecoveryStats
				}{st, rec})
			}
		}
	}

	// A fault key's backoff0 and onviolation=true name the backoff cap
	// 8·max(1, AckDelay) and the scan on a violated round, which every
	// fault session has run since they stopped being settable; the keys
	// keep the names they were recorded under.
	for _, name := range names {
		for _, seed := range []int64{1, 7} {
			for _, pol := range sessionPolicies {
				acks := []int{0}
				if pol == switchsim.Resend {
					acks = []int{0, 1, 2, 3}
				}
				for _, ack := range acks {
					for _, scanEvery := range []int{0, 7} {
						tag := fmt.Sprintf("fault/%s/seed%d/%s/ack%d/backoff0/scan%d/onviolation=true",
							name, seed, pol, ack, scanEvery)
						sw := sessionSwitch(t, name)
						cfg := FaultSessionConfig{
							SessionConfig: sessionBase(pol, 0.8, seed),
							Schedule:      GenerateFaultSchedule(seed, sw, 12, 40, 5),
							ScanEvery:     scanEvery,
						}
						cfg.AckDelay = ack
						st, err := RunFaultAwareSession(sw, cfg)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						s := *st
						s.RetriedDelivered, s.FinalBacklog = 0, 0
						s.FirstTryLatencyHistogram, s.RetriedLatencyHistogram, s.MissedLatencyHistogram = nil, nil, nil
						got[tag] = digestJSON(t, tag, s)
					}
				}
			}
		}
	}

	for _, name := range names {
		for _, ber := range []float64{1e-3, 1e-2} {
			for _, crc := range []link.CRC{link.CRCNone, link.CRC8, link.CRC16} {
				for _, window := range []int{1, 4} {
					for _, adaptive := range []bool{false, true} {
						tag := fmt.Sprintf("integrity/%s/ber%g/%s/window%d/adaptive=%v", name, ber, crc, window, adaptive)
						plane := link.NewCorruptionPlane(3)
						if err := plane.Add(link.WireFault{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: ber}); err != nil {
							t.Fatal(err)
						}
						cfg := sessionBase(switchsim.Resend, 0.3, 3)
						cfg.PayloadBits = 16
						cfg.Integrity = &switchsim.IntegrityConfig{
							CRC: crc, Window: window, Corruption: plane, AdaptiveRTO: adaptive,
							Monitor: link.MonitorConfig{Threshold: 0.5, MinFrames: 16},
						}
						st, err := RunIntegritySession(sessionSwitch(t, name), cfg)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						got[tag] = integrityDigest(t, tag, st)
					}
				}
			}
		}
		tag := fmt.Sprintf("integrity/%s/straggler", name)
		tp := timing.NewPlane(9)
		if err := tp.Add(timing.Fault{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Constant, Delay: 4}); err != nil {
			t.Fatal(err)
		}
		cfg := sessionBase(switchsim.Resend, 0.3, 9)
		cfg.Deadline = 6
		cfg.Integrity = &switchsim.IntegrityConfig{CRC: link.CRC16, Window: 4, Timing: tp, AdaptiveRTO: true}
		st, err := RunIntegritySession(sessionSwitch(t, name), cfg)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		got[tag] = integrityDigest(t, tag, st)

		// Paths the grid never books: erasures recovered by timeout on
		// a starved budget, a timing plane over corruption and
		// congestion (timeouts, duplicates, Karn rejections), the two
		// together (a frame resent while the verdict on its earlier send
		// is still stalled, then erased, waits out its RTO), and
		// deadline misses under a flash surge.
		stresses := map[string]func(cfg *switchsim.SessionConfig, outStage int){
			"output-erasure": func(cfg *switchsim.SessionConfig, outStage int) {
				if err := cfg.Integrity.Corruption.Add(link.WireFault{Stage: outStage, Wire: link.AllWires, Mode: link.WireErasure, From: 10, Until: 18}); err != nil {
					t.Fatal(err)
				}
				cfg.Integrity.MaxRetransmits = 2
			},
			"timing-jitter": func(cfg *switchsim.SessionConfig, _ int) {
				tp := timing.NewPlane(5)
				if err := tp.Add(timing.Fault{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Jitter, Prob: 0.4, MaxDelay: 8}); err != nil {
					t.Fatal(err)
				}
				cfg.Load = 0.9
				cfg.Integrity.Timing, cfg.Integrity.AdaptiveRTO = tp, true
			},
			"flash-deadline": func(cfg *switchsim.SessionConfig, _ int) {
				cfg.Deadline = 4
				cfg.Surge = overload.NewPlane(5)
				if err := cfg.Surge.Add(overload.Fault{Mode: overload.Flash, Factor: 3, Prob: 0.35}); err != nil {
					t.Fatal(err)
				}
			},
		}
		stresses["erasure-under-stalls"] = func(cfg *switchsim.SessionConfig, outStage int) {
			stresses["output-erasure"](cfg, outStage)
			stresses["timing-jitter"](cfg, outStage)
		}
		for variant, stress := range stresses {
			tag := fmt.Sprintf("integrity/%s/%s", name, variant)
			sw := sessionSwitch(t, name)
			plane := link.NewCorruptionPlane(5)
			if err := plane.Add(link.WireFault{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: 1e-3}); err != nil {
				t.Fatal(err)
			}
			cfg := sessionBase(switchsim.Resend, 0.3, 5)
			cfg.PayloadBits = 16
			cfg.Integrity = &switchsim.IntegrityConfig{
				CRC: link.CRC16, Window: 4, Corruption: plane,
				Monitor: link.MonitorConfig{Threshold: 0.5, MinFrames: 16},
			}
			stress(&cfg, len(sw.StageChips()))
			st, err := RunIntegritySession(sw, cfg)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			got[tag] = integrityDigest(t, tag, st)
		}
	}

	replayDigests(t, sessionDigests, got)
}

// replayDigests compares got against the recorded corpus at path, or
// rewrites the corpus under -update.
func replayDigests(t *testing.T, path string, got map[string]string) {
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

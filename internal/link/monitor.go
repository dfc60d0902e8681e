package link

import (
	"fmt"
	"sort"
)

// monitorAlpha is the EWMA smoothing factor: the weight of the newest
// observation.
const monitorAlpha = 0.25

// MonitorConfig tunes the per-link corruption-rate tracker.
type MonitorConfig struct {
	// Threshold is the EWMA corruption rate at which a link becomes
	// suspect and is escalated into the health plane's BIST-scan →
	// quarantine path. 0 means the default (0.3).
	Threshold float64
	// MinFrames is the number of frames a link must have carried before
	// it can be escalated — a single corrupted frame on a cold link is
	// noise, not a diagnosis. 0 means the default (8).
	MinFrames int
}

// Validate rejects a threshold outside [0,1] and a negative MinFrames.
func (c MonitorConfig) Validate() error {
	switch {
	case c.Threshold != c.Threshold || c.Threshold < 0 || c.Threshold > 1:
		return fmt.Errorf("link: monitor threshold %v outside (0,1]", c.Threshold)
	case c.MinFrames < 0:
		return fmt.Errorf("link: negative monitor MinFrames %d", c.MinFrames)
	}
	return nil
}

// LinkHealth is one link's observed corruption history.
type LinkHealth struct {
	// Frames and Corrupted count observations (a frame is corrupted
	// when its checksum failed or it was erased on the wire).
	Frames, Corrupted int
	// EWMA is the exponentially weighted corruption rate.
	EWMA float64
	// Escalated reports that the link has been handed to the health
	// plane (scan + quarantine); it is no longer observed.
	Escalated bool
}

// LinkMonitor tracks per-(stage, wire) corruption rates on the
// receiver side and surfaces the links whose EWMA crossed the
// escalation threshold. It is the wire-level analogue of the pool's
// consecutive-violation breaker: where the breaker reacts to contract
// violations, the monitor reacts to checksum failures.
type LinkMonitor struct {
	cfg   MonitorConfig
	links map[LinkAddr]*LinkHealth
}

// NewLinkMonitor builds a monitor for a cfg that passes Validate; zero
// cfg fields take defaults.
func NewLinkMonitor(cfg MonitorConfig) *LinkMonitor {
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.3
	}
	if cfg.MinFrames == 0 {
		cfg.MinFrames = 8
	}
	return &LinkMonitor{cfg: cfg, links: make(map[LinkAddr]*LinkHealth)}
}

// Config returns the effective (defaulted) configuration.
func (m *LinkMonitor) Config() MonitorConfig { return m.cfg }

// Observe records one frame crossing the link and whether it arrived
// corrupted (checksum failure or erasure). Observations on an
// escalated link are ignored — it is out of service.
func (m *LinkMonitor) Observe(at LinkAddr, corrupted bool) {
	lh := m.links[at]
	if lh == nil {
		lh = &LinkHealth{}
		m.links[at] = lh
	}
	if lh.Escalated {
		return
	}
	lh.Frames++
	x := 0.0
	if corrupted {
		lh.Corrupted++
		x = 1.0
	}
	if lh.Frames == 1 {
		lh.EWMA = x
	} else {
		lh.EWMA = monitorAlpha*x + (1-monitorAlpha)*lh.EWMA
	}
}

// Health returns the link's observed history (zero value if never
// observed).
func (m *LinkMonitor) Health(at LinkAddr) LinkHealth {
	if lh := m.links[at]; lh != nil {
		return *lh
	}
	return LinkHealth{}
}

// Suspects lists the links whose EWMA is at or above the threshold
// with enough frames observed, in (stage, wire) order — the candidates
// for the BIST-scan → quarantine escalation. Already-escalated links
// are excluded.
func (m *LinkMonitor) Suspects() []LinkAddr {
	var out []LinkAddr
	for at, lh := range m.links {
		if !lh.Escalated && lh.Frames >= m.cfg.MinFrames && lh.EWMA >= m.cfg.Threshold {
			out = append(out, at)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Wire < out[j].Wire
	})
	return out
}

// Reset discards the link's observed history, giving it a fresh trial.
// The receiver calls this to exonerate a link whose corrupt frames were
// all explained by another link that has since been quarantined — the
// old evidence is stale once the true culprit is out of service. An
// escalated link stays escalated (out of service is permanent).
func (m *LinkMonitor) Reset(at LinkAddr) {
	if lh := m.links[at]; lh != nil && !lh.Escalated {
		delete(m.links, at)
	}
}

// Escalate marks the link as handed off to the health plane; further
// observations are ignored and it never re-appears in Suspects.
func (m *LinkMonitor) Escalate(at LinkAddr) {
	lh := m.links[at]
	if lh == nil {
		lh = &LinkHealth{}
		m.links[at] = lh
	}
	lh.Escalated = true
}

// Snapshot returns a copy of every observed link's health, keyed by
// address.
func (m *LinkMonitor) Snapshot() map[LinkAddr]LinkHealth {
	out := make(map[LinkAddr]LinkHealth, len(m.links))
	for at, lh := range m.links {
		out[at] = *lh
	}
	return out
}

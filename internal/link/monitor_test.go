package link

import "testing"

func TestMonitorConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MonitorConfig
	}{
		{"threshold above one", MonitorConfig{Threshold: 2}},
		{"negative min frames", MonitorConfig{MinFrames: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Errorf("accepted %+v", tc.cfg)
			}
		})
	}
	m := NewLinkMonitor(MonitorConfig{})
	if cfg := m.Config(); cfg.Threshold != 0.3 || cfg.MinFrames != 8 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	at := LinkAddr{Stage: 1, Wire: 1}
	m.Observe(at, true)
	m.Observe(at, false)
	if h := m.Health(at); h.EWMA != 0.75 {
		t.Errorf("EWMA %v after a corrupt and a clean frame, want 0.75 (the newest frame weighs 0.25)", h.EWMA)
	}
}

// A link corrupting every frame crosses the threshold after exactly
// MinFrames observations; a clean link never does; a recovering link's
// EWMA decays back under the threshold.
func TestMonitorEscalationBounds(t *testing.T) {
	m := NewLinkMonitor(MonitorConfig{})
	bad := LinkAddr{Stage: 3, Wire: 4}
	good := LinkAddr{Stage: 3, Wire: 5}
	for i := 0; i < m.Config().MinFrames; i++ {
		if len(m.Suspects()) != 0 {
			t.Fatalf("suspect after only %d frames", i)
		}
		m.Observe(bad, true)
		m.Observe(good, false)
	}
	suspects := m.Suspects()
	if len(suspects) != 1 || suspects[0] != bad {
		t.Fatalf("suspects = %v, want [%v]", suspects, bad)
	}
	if h := m.Health(bad); h.Frames != 8 || h.Corrupted != 8 || h.EWMA != 1 {
		t.Errorf("bad link health %+v", h)
	}
	if h := m.Health(good); h.EWMA != 0 || h.Corrupted != 0 {
		t.Errorf("good link health %+v", h)
	}

	// Escalation takes the link out of observation permanently.
	m.Escalate(bad)
	if len(m.Suspects()) != 0 {
		t.Error("escalated link still suspect")
	}
	m.Observe(bad, true)
	if h := m.Health(bad); h.Frames != 8 {
		t.Error("escalated link still observed")
	}

	// A transient glitch decays: corrupt burst then a clean run.
	flaky := LinkAddr{Stage: 3, Wire: 6}
	for i := 0; i < 4; i++ {
		m.Observe(flaky, true)
	}
	for i := 0; i < 40; i++ {
		m.Observe(flaky, false)
	}
	if h := m.Health(flaky); h.EWMA >= m.Config().Threshold {
		t.Errorf("flaky link EWMA %.3f never decayed", h.EWMA)
	}
	for _, s := range m.Suspects() {
		if s == flaky {
			t.Error("recovered link still suspect")
		}
	}
}

// Reset exonerates a link (fresh trial) but cannot un-escalate one.
func TestMonitorReset(t *testing.T) {
	m := NewLinkMonitor(MonitorConfig{})
	at := LinkAddr{Stage: 1, Wire: 2}
	for i := 0; i < 10; i++ {
		m.Observe(at, true)
	}
	if len(m.Suspects()) != 1 {
		t.Fatal("link never became suspect")
	}
	m.Reset(at)
	if h := m.Health(at); h.Frames != 0 || h.EWMA != 0 {
		t.Errorf("reset left history %+v", h)
	}
	if len(m.Suspects()) != 0 {
		t.Error("reset link still suspect")
	}
	m.Escalate(at)
	m.Reset(at)
	if !m.Health(at).Escalated {
		t.Error("reset cleared an escalation")
	}
}

func TestMonitorSnapshot(t *testing.T) {
	m := NewLinkMonitor(MonitorConfig{})
	m.Observe(LinkAddr{0, 1}, true)
	m.Observe(LinkAddr{0, 2}, false)
	snap := m.Snapshot()
	if len(snap) != 2 || snap[LinkAddr{0, 1}].Corrupted != 1 || snap[LinkAddr{0, 2}].Frames != 1 {
		t.Errorf("snapshot %v", snap)
	}
	// Snapshot is a copy.
	h := snap[LinkAddr{0, 1}]
	h.Frames = 99
	if m.Health(LinkAddr{0, 1}).Frames == 99 {
		t.Error("snapshot aliases monitor state")
	}
}

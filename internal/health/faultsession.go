package health

import (
	"fmt"
	"math/rand"
	"sort"

	"concentrators/internal/core"
	"concentrators/internal/switchsim"
)

// ScheduledFault is one arrival of the fault process: at the start of
// Round, Fault strikes the switch.
type ScheduledFault struct {
	Round int
	Fault core.ChipFault
}

// GenerateFaultSchedule draws a deterministic, seeded fault arrival
// process for sw: inter-arrival times are exponential with mean mtbf
// rounds, each striking a uniformly random chip that has not failed yet
// with a uniformly random failure mode. At most maxFaults faults are
// scheduled, all before round `rounds`.
func GenerateFaultSchedule(seed int64, sw core.FaultInjectable, mtbf float64, rounds, maxFaults int) []ScheduledFault {
	rng := rand.New(rand.NewSource(seed))
	stages := sw.StageChips()
	if len(stages) == 0 || mtbf <= 0 {
		return nil
	}
	used := make(map[[2]int]bool)
	var out []ScheduledFault
	t := 0.0
	for len(out) < maxFaults {
		t += rng.ExpFloat64() * mtbf
		round := int(t)
		if round >= rounds {
			break
		}
		var f core.ChipFault
		ok := false
		for tries := 0; tries < 64; tries++ {
			si := rng.Intn(len(stages))
			st := stages[si]
			chip := rng.Intn(st.Chips)
			if used[[2]int{si, chip}] {
				continue
			}
			mode := core.ChipFaultMode(rng.Intn(4))
			if mode == core.ChipSwappedPair && st.Ports < 2 {
				mode = core.ChipDead
			}
			a := rng.Intn(st.Ports)
			b := a
			if st.Ports > 1 {
				for b == a {
					b = rng.Intn(st.Ports)
				}
			}
			f = core.ChipFault{Stage: si, Chip: chip, Mode: mode, A: a, B: b}
			used[[2]int{si, chip}] = true
			ok = true
			break
		}
		if !ok {
			break // the switch has run out of healthy chips
		}
		out = append(out, ScheduledFault{Round: round, Fault: f})
	}
	return out
}

// FaultSessionConfig drives a fault-aware multi-round session.
type FaultSessionConfig struct {
	switchsim.SessionConfig
	// Schedule is the fault arrival process (see GenerateFaultSchedule).
	Schedule []ScheduledFault
	// ScanEvery runs a BIST scan every that many rounds (0 disables
	// periodic scanning). A traffic round that violates the active
	// delivery contract triggers a scan as well.
	ScanEvery int
}

// Validate rejects malformed configurations with an error instead of
// silently clamping: an Integrity layer (the ARQ engine is a different
// machine from the round machine a fault session steps), the embedded
// SessionConfig checks (rounds, load, payload bits, ack delay and the
// deadline, surge, CoDel and retry-budget layers), negative scan
// periods, and scheduled faults that fall outside the session or that
// core.ValidateFaultPlane rejects for the switch (stage, chip, mode or
// ports it cannot hold).
func (cfg FaultSessionConfig) Validate(sw core.FaultInjectable) error {
	if cfg.Integrity != nil {
		return fmt.Errorf("health: fault sessions do not run SessionConfig.Integrity; leave it unset")
	}
	if err := cfg.SessionConfig.Validate(); err != nil {
		return err
	}
	if cfg.ScanEvery < 0 {
		return fmt.Errorf("health: negative scan period %d", cfg.ScanEvery)
	}
	for i, sf := range cfg.Schedule {
		if sf.Round < 0 || sf.Round >= cfg.Rounds {
			return fmt.Errorf("health: schedule[%d] round %d outside session [0,%d)", i, sf.Round, cfg.Rounds)
		}
		p := core.NewFaultPlane()
		p.Add(sf.Fault)
		if err := core.ValidateFaultPlane(sw, p); err != nil {
			return fmt.Errorf("health: schedule[%d]: %w", i, err)
		}
	}
	return nil
}

// DetectionEvent records one fault localization.
type DetectionEvent struct {
	// Round is when the scan localized the fault.
	Round int
	// Fault is the diagnosis.
	Fault LocalizedFault
	// LatencyRounds is rounds elapsed since the fault's scheduled
	// arrival, or −1 if the fault was not matched to the schedule.
	LatencyRounds int
}

// FaultSessionStats extends SessionStats with the fault plane's
// observability: detection latency, losses before/after detection,
// scan overhead, and the post-degradation contract.
type FaultSessionStats struct {
	switchsim.SessionStats
	// FaultsInjected and FaultsDetected count schedule arrivals and
	// scan localizations.
	FaultsInjected, FaultsDetected int
	// Detections lists every localization with its latency.
	Detections []DetectionEvent
	// LostBeforeDetection is the delivery shortfall against the active
	// contract accumulated while an undetected fault was live;
	// LostAfterDetection is the same once every live fault was covered
	// by the degradation (zero when the degradation is sound).
	LostBeforeDetection, LostAfterDetection int
	// GuaranteeViolations counts traffic rounds whose routing violated
	// the active contract (the online detector's trigger).
	GuaranteeViolations int
	// Scans and ScanRoutes count BIST scans and the setup cycles they
	// consumed; ScanOverhead is ScanRoutes/(ScanRoutes+traffic rounds).
	Scans, ScanRoutes int
	ScanOverhead      float64
	// PostDegradationAlpha, DegradedThreshold and DegradedOutputs
	// describe the final degraded contract (α′ = 1−ε′/m′, m′−ε′, m′);
	// they equal the healthy contract when nothing was detected.
	PostDegradationAlpha float64
	DegradedThreshold    int
	DegradedOutputs      int
}

// RunFaultAwareSession simulates a multi-round session during which
// chip faults strike the switch per cfg.Schedule. It drives switchsim's
// session round machine: every round, due faults are injected into the
// live fault plane, a BIST scan runs if due, the machine steps its
// policy on the active switch (raw, or its DegradedSwitch once faults
// are localized), and the routing is checked online against the active
// contract; a violation triggers an immediate scan, the cheap online
// detector that catches most destructive faults within one round.
// Messages destroyed by an undetected fault surface as losses; under
// Resend the ack path retries them with exponential backoff: the i-th
// retry of a message waits min(AckDelay·2^(i−1), 8·max(1, AckDelay))
// extra rounds for its acknowledgment timeout, unless a RetryBudget's
// jittered backoff replaces the doubling.
func RunFaultAwareSession(sw core.FaultInjectable, cfg FaultSessionConfig) (*FaultSessionStats, error) {
	if err := cfg.Validate(sw); err != nil {
		return nil, err
	}
	sess, err := switchsim.NewSession(sw, cfg.SessionConfig, 8*max(1, cfg.AckDelay))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	stats := &FaultSessionStats{}

	// The schedule strikes a copy of the caller's plane, and the
	// caller's plane is back when the session returns, so the next
	// session on sw starts from the same fabric.
	own := sw.ActiveFaultPlane()
	plane := own.Clone()
	if err := sw.SetFaultPlane(plane); err != nil {
		return nil, err
	}
	// Reinstalling own cannot fail: it holds the faults its clone was
	// just accepted with.
	defer sw.SetFaultPlane(own)
	var active core.Concentrator = sw
	known := make(map[[2]int]LocalizedFault)
	injectedAt := make(map[[2]int]int)

	runScan := func(round int) error {
		rep, err := Scan(sw)
		if err != nil {
			return err
		}
		stats.Scans++
		stats.ScanRoutes += rep.Routes
		fresh := false
		for _, lf := range rep.Faults {
			if _, seen := known[lf.key()]; seen {
				continue
			}
			known[lf.key()] = lf
			fresh = true
			lat := -1
			if at, ok := injectedAt[lf.key()]; ok {
				lat = round - at
			}
			stats.Detections = append(stats.Detections, DetectionEvent{Round: round, Fault: lf, LatencyRounds: lat})
			stats.FaultsDetected++
		}
		if fresh {
			all := make([]LocalizedFault, 0, len(known))
			for _, lf := range known {
				all = append(all, lf)
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].Stage != all[j].Stage {
					return all[i].Stage < all[j].Stage
				}
				return all[i].Chip < all[j].Chip
			})
			d, err := NewDegradedSwitch(sw, all)
			if err != nil {
				return err
			}
			active = d
		}
		return nil
	}

	trafficRounds := 0
	for round := 0; round < cfg.Rounds; round++ {
		for _, sf := range cfg.Schedule {
			if sf.Round == round {
				plane.Add(sf.Fault)
				injectedAt[[2]int{sf.Fault.Stage, sf.Fault.Chip}] = round
				stats.FaultsInjected++
			}
		}
		if cfg.ScanEvery > 0 && round%cfg.ScanEvery == 0 {
			if err := runScan(round); err != nil {
				return nil, err
			}
		}

		msgs, res, err := sess.Step(active, rng)
		if err != nil {
			return nil, err
		}
		if msgs == nil {
			continue
		}
		trafficRounds++

		// Online detection: the round's delivery shortfall against the
		// active contract is fault loss; attribute it to the detection
		// phase the session is in.
		undetected := false
		for _, f := range plane.Faults() {
			if _, seen := known[[2]int{f.Stage, f.Chip}]; !seen {
				undetected = true
				break
			}
		}
		expect := min(len(msgs), core.Threshold(active))
		if shortfall := expect - len(res.Delivered); shortfall > 0 {
			if undetected {
				stats.LostBeforeDetection += shortfall
			} else {
				stats.LostAfterDetection += shortfall
			}
		}
		if switchsim.CheckGuarantee(active, msgs, res) != nil {
			stats.GuaranteeViolations++
			if err := runScan(round); err != nil {
				return nil, err
			}
		}
	}

	stats.SessionStats = *sess.Finish()
	if total := stats.ScanRoutes + trafficRounds; total > 0 {
		stats.ScanOverhead = float64(stats.ScanRoutes) / float64(total)
	}
	stats.PostDegradationAlpha = core.LoadRatio(active)
	stats.DegradedThreshold = core.Threshold(active)
	stats.DegradedOutputs = active.Outputs()
	return stats, nil
}

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
	// periodic scanning).
	ScanEvery int
	// ScanOnViolation triggers an immediate scan when a traffic round
	// violates the active delivery contract — the cheap online detector
	// that catches most destructive faults within one round.
	ScanOnViolation bool
	// BackoffMax bounds the Resend policy's exponential retry backoff:
	// the i-th retry of a message waits min(AckDelay·2^(i−1), BackoffMax)
	// extra rounds for its acknowledgment timeout. 0 means
	// 8·max(1, AckDelay).
	BackoffMax int
}

// Validate rejects malformed configurations with an error instead of
// silently clamping: the session layers a fault session does not run
// (Deadline, Surge, CoDel, RetryBudget, Integrity — set, they would be
// silently ignored), the embedded SessionConfig checks (rounds, load,
// payload bits, ack delay), negative scan periods or backoff caps, and
// scheduled faults that fall outside the session or that
// core.ValidateFaultPlane rejects for the switch (stage, chip, mode or
// ports it cannot hold).
func (cfg FaultSessionConfig) Validate(sw core.FaultInjectable) error {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Deadline", cfg.Deadline != 0},
		{"Surge", cfg.Surge != nil},
		{"CoDel", cfg.CoDel != nil},
		{"RetryBudget", cfg.RetryBudget != nil},
		{"Integrity", cfg.Integrity != nil},
	} {
		if f.set {
			return fmt.Errorf("health: fault sessions do not run SessionConfig.%s; leave it unset", f.name)
		}
	}
	if err := cfg.SessionConfig.Validate(); err != nil {
		return err
	}
	if cfg.ScanEvery < 0 {
		return fmt.Errorf("health: negative scan period %d", cfg.ScanEvery)
	}
	if cfg.BackoffMax < 0 {
		return fmt.Errorf("health: negative backoff cap %d", cfg.BackoffMax)
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

type faultPending struct {
	input      int
	firstRound int
	eligible   int
	attempts   int
}

// RunFaultAwareSession simulates a multi-round session during which
// chip faults strike the switch per cfg.Schedule. Every round: due
// faults are injected into the live fault plane, a BIST scan runs if
// due, pending and new messages are offered, the active switch (raw,
// or its DegradedSwitch once faults are localized) routes them, and
// the routing is checked online against the active contract. Messages
// destroyed by an undetected fault surface as losses; under Resend the
// ack path retries them with bounded exponential backoff.
func RunFaultAwareSession(sw core.FaultInjectable, cfg FaultSessionConfig) (*FaultSessionStats, error) {
	if err := cfg.Validate(sw); err != nil {
		return nil, err
	}
	backoffMax := cfg.BackoffMax
	if backoffMax <= 0 {
		backoffMax = 8 * max(1, cfg.AckDelay)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := sw.Inputs()
	stats := &FaultSessionStats{
		SessionStats: switchsim.SessionStats{
			Policy:            cfg.Policy,
			LatencyHistogram:  map[int]int{},
			DeliveredPerRound: make([]int, cfg.Rounds),
		},
	}

	plane := sw.ActiveFaultPlane()
	if plane == nil {
		plane = core.NewFaultPlane()
		if err := sw.SetFaultPlane(plane); err != nil {
			return nil, err
		}
	}
	var active core.Concentrator = sw
	var degraded *DegradedSwitch
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
			degraded, active = d, d
		}
		return nil
	}

	buffered := make(map[int]*faultPending)
	var retryPool []*faultPending
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

		offered := map[int]*faultPending{}
		busy := map[int]bool{}
		switch cfg.Policy {
		case switchsim.Buffer:
			for in, pm := range buffered {
				offered[in] = pm
				stats.Retries++
			}
		case switchsim.Misroute:
			var wandering []*faultPending
			for _, pm := range retryPool {
				in := -1
				for _, cand := range rng.Perm(n) {
					if offered[cand] == nil {
						in = cand
						break
					}
				}
				if in == -1 {
					wandering = append(wandering, pm)
					continue
				}
				pm.input = in
				offered[in] = pm
				stats.Retries++
			}
			retryPool = wandering
		case switchsim.Resend:
			var stillWaiting []*faultPending
			for _, pm := range retryPool {
				if pm.eligible > round {
					stillWaiting = append(stillWaiting, pm)
					busy[pm.input] = true
					continue
				}
				if offered[pm.input] != nil {
					return nil, fmt.Errorf("health: duplicate retry for input %d", pm.input)
				}
				offered[pm.input] = pm
				stats.Retries++
			}
			retryPool = stillWaiting
		}

		for in := 0; in < n; in++ {
			if rng.Float64() >= cfg.Load {
				continue
			}
			if offered[in] != nil || busy[in] {
				stats.Refused++
				continue
			}
			offered[in] = &faultPending{input: in, firstRound: round}
			stats.Offered++
		}
		if len(offered) > stats.MaxOffered {
			stats.MaxOffered = len(offered)
		}
		if len(offered) == 0 {
			if w := len(retryPool) + len(buffered); w > stats.MaxBacklog {
				stats.MaxBacklog = w
			}
			continue
		}

		inputs := make([]int, 0, len(offered))
		for in := range offered {
			inputs = append(inputs, in)
		}
		sort.Ints(inputs)
		msgs := make([]switchsim.Message, 0, len(inputs))
		for _, in := range inputs {
			payload := make([]byte, cfg.PayloadBits)
			for b := range payload {
				payload[b] = byte(rng.Intn(2))
			}
			msgs = append(msgs, switchsim.Message{Input: in, Payload: payload})
		}
		res, err := switchsim.Run(active, msgs)
		if err != nil {
			return nil, err
		}
		trafficRounds++

		for _, dlv := range res.Delivered {
			pm := offered[dlv.Input]
			stats.Delivered++
			stats.DeliveredPerRound[round]++
			stats.LatencyHistogram[round-pm.firstRound]++
		}

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
		violated := switchsim.CheckGuarantee(active, msgs, res) != nil
		if violated {
			stats.GuaranteeViolations++
		}

		buffered = map[int]*faultPending{}
		for _, in := range res.DroppedInputs {
			pm := offered[in]
			switch cfg.Policy {
			case switchsim.Drop:
				stats.Dropped++
			case switchsim.Resend:
				pm.attempts++
				delay := cfg.AckDelay
				for a := 1; a < pm.attempts && delay < backoffMax; a++ {
					delay *= 2
				}
				if delay > backoffMax {
					delay = backoffMax
				}
				pm.eligible = round + 1 + delay
				retryPool = append(retryPool, pm)
			case switchsim.Misroute:
				retryPool = append(retryPool, pm)
			case switchsim.Buffer:
				buffered[in] = pm
			}
		}
		if w := len(retryPool) + len(buffered); w > stats.MaxBacklog {
			stats.MaxBacklog = w
		}

		if violated && cfg.ScanOnViolation {
			if err := runScan(round); err != nil {
				return nil, err
			}
		}
	}

	if total := stats.ScanRoutes + trafficRounds; total > 0 {
		stats.ScanOverhead = float64(stats.ScanRoutes) / float64(total)
	}
	final := active
	if degraded != nil {
		final = degraded
	}
	stats.PostDegradationAlpha = core.LoadRatio(final)
	stats.DegradedThreshold = core.Threshold(final)
	stats.DegradedOutputs = final.Outputs()
	return stats, nil
}

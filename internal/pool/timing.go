package pool

import (
	"math"

	"concentrators/internal/health"
	"concentrators/internal/switchsim"
	"concentrators/internal/timing"
)

// Gray-failure tolerance in the pool. Each replica board carries its
// own timing fault plane (injected by the chaos harness through
// InjectTimingFault): a faulted board still routes correctly — BIST
// scans and delivery-guarantee checks see nothing wrong — but its
// rounds take extra virtual rounds of latency. Three mechanisms keep
// the pool's tail flat:
//
//   - Hedged dispatch: a round whose serving latency exceeds the
//     HedgeQuantile of the pool's observed latency is replayed on the
//     next-ranked healthy replica; first completion wins and the
//     loser's duplicate deliveries are discarded (the receiver dedups
//     by round setup). A budget caps hedges at HedgeBudget of all
//     rounds so tail chasing never doubles the routing work.
//   - Slow-replica conviction: the health plane's relative-percentile
//     detector compares each replica's windowed latency quantile
//     against the median of its peers — no absolute thresholds — and
//     a persistent outlier trips the existing breaker into
//     quarantine. Hedging is what feeds the detector: spares only
//     accumulate latency samples when hedged rounds run on them.
//   - Canary probes: a slow-convicted replica's half-open probe must
//     pass a timed canary replay on top of the BIST scan, because a
//     gray replica's fabric is perfectly correct; only its clock
//     tells the truth.

// InjectTimingFault adds a timing fault to replica i's gray-failure
// plane — the chaos harness's straggler injection port. The plane is
// created (seeded by replica index) on first use.
func (p *Pool) InjectTimingFault(i int, f timing.Fault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r, err := p.replicaLocked(i)
	if err != nil {
		return err
	}
	if r.tplane == nil {
		r.tplane = timing.NewPlane(int64(i) + 1)
	}
	return r.tplane.Add(f)
}

// timingDelayLocked is replica r's extra serving latency this round:
// the worst per-stage stall along its pipeline, stages summed (a
// batch crosses every stage; the slowest chip of a stage paces it).
func (p *Pool) timingDelayLocked(r *replica, round int64) int {
	if r.tplane == nil {
		return 0
	}
	return r.tplane.RoundDelay(int(round), r.stages)
}

// shouldHedgeLocked decides whether a round that served with the given
// latency earns a hedge: hedging enabled, budget unspent, and the
// latency above the pool's HedgeQuantile trigger (floored at one round
// — the fabric's minimum — until enough history accumulates).
func (p *Pool) shouldHedgeLocked(lat int) bool {
	if p.cfg.HedgeQuantile == 0 || len(p.replicas) < 2 {
		return false
	}
	if float64(p.ledger.Hedges+1) > p.cfg.HedgeBudget*float64(p.ledger.Rounds) {
		return false // hedge budget spent
	}
	trigger := 1
	if t, ok := p.lat.Quantile(p.cfg.HedgeQuantile); ok && p.lat.Total() >= 8 {
		trigger = max(t, 1)
	}
	return lat > trigger
}

// hedgeLocked replays the round's admitted batch on the next-ranked
// healthy replica. Returns the spare with its result and latency when
// the spare's round satisfied its contract; (nil, nil, 0) when no
// spare was available or the spare violated (which is booked against
// the spare's breaker, exactly like a failover attempt).
func (p *Pool) hedgeLocked(primary *replica, tried map[int]bool, admitted []switchsim.Message, round int64) (*replica, *switchsim.Result, int) {
	skip := map[int]bool{primary.ID: true}
	for id := range tried {
		skip[id] = true
	}
	si := p.bestLocked(skip, nil, nil)
	if si < 0 {
		return nil, nil, 0
	}
	s := p.replicas[si]
	p.ledger.Hedges++
	sres, ok := p.judgedAttemptLocked(s, round, admitted)
	if !ok {
		p.noteViolation(s, round)
		return nil, nil, 0
	}
	slat := 1 + p.timingDelayLocked(s, round)
	s.lat.Observe(slat)
	p.slow.Observe(s.ID, slat)
	return s, sres, slat
}

// canaryPassLocked replays a timed canary against replica r: its
// current serving latency must sit under the conviction line relative
// to its peers. With no peer evidence on record the canary passes —
// there is nothing to be slower than.
func (p *Pool) canaryPassLocked(r *replica, round int64) bool {
	r.Canaries++
	p.ledger.Canaries++
	lat := 1 + p.timingDelayLocked(r, round)
	med, ok := p.slow.PeerMedian(r.ID)
	if !ok {
		return true
	}
	return float64(lat) <= math.Max(health.SlowFactor*med, med+1)
}

// sweepSlowLocked advances the slow detector one round and trips the
// breaker on every fresh conviction: the gray replica escalates
// through the same suspect→quarantine→probe machinery as a faulted
// one, but its probes will demand a canary.
func (p *Pool) sweepSlowLocked(round int64) {
	for _, id := range p.slow.Sweep() {
		r := p.replicas[id]
		if r.Killed || r.State == Quarantined {
			continue
		}
		r.SlowConvicted = true
		r.SlowConvictions++
		p.ledger.SlowConvictions++
		p.trip(r, round)
	}
}

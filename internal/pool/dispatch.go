package pool

// Speculative concurrent replica dispatch. With Config.Parallel ≥ 2
// the pool routes each round's admitted batch through every live
// replica's serving contract on a bounded worker pool BEFORE the
// arbiter starts consuming results. The round's control flow — the
// serving loop's failover order, hedging, lease handoffs, dark and
// shadow serving, ledger bookings — is untouched: every attempt goes
// through attemptLocked, which hands out the precomputed attempts in
// exactly the order the sequential path would have routed them, so
// ledgers, chaos trajectories, and seeded schedules stay bit-identical
// to Parallel == 0.
//
// The determinism argument: switchsim.Run(contract, admitted) — one
// round of a fresh Runner — is a pure function of its arguments (the
// routing kernels share only a sync.Pool of scratch buffers), and
// every round-mutating side effect (wire noise, link escalation,
// breaker bookkeeping, stats) happens at consumption time,
// sequentially, under the pool lock. A consumption whose replica
// contract was rebuilt mid-round (wire escalation swaps in a new
// DegradedSwitch) detects the stale attempt by interface pointer
// inequality and reroutes inline — again exactly what the sequential
// path computes.
//
// Speculation trades work for wall-clock: rounds that would have tried
// one replica still route on all of them. That is the right trade for
// the failure modes the pool exists to absorb — failover sweeps and
// witness audits route most of the replica set anyway — and the reason
// Parallel is opt-in.

import (
	"sync"

	"concentrators/internal/core"
	"concentrators/internal/switchsim"
)

// routeAttempt is one replica's speculatively precomputed serving
// attempt for the current round's admitted batch.
type routeAttempt struct {
	// c is the contract the attempt ran under; consumption revalidates
	// it by interface pointer equality against the replica's live
	// contract.
	c   core.Concentrator
	res *switchsim.Result
	err error
	// used marks a consumed attempt: a second consumption (a replica
	// tried by the serving loop and again as a stale shadow believer)
	// reroutes inline, matching the sequential path's fresh call.
	used bool
}

// dispatchLocked speculatively routes the admitted batch through every
// live (non-killed) replica's current contract on up to Config.Parallel
// workers. Returns nil — sequential dispatch — when parallelism is off
// or fewer than two replicas could serve.
func (p *Pool) dispatchLocked(admitted []switchsim.Message) []routeAttempt {
	if p.cfg.Parallel < 2 {
		return nil
	}
	atts := make([]routeAttempt, len(p.replicas))
	idx := make([]int, 0, len(p.replicas))
	for i, r := range p.replicas {
		if r.killed {
			continue
		}
		atts[i].c = r.contract()
		idx = append(idx, i)
	}
	if len(idx) < 2 {
		return nil
	}
	workers := min(p.cfg.Parallel, len(idx))
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				att := &atts[i]
				att.res, att.err = switchsim.Run(att.c, admitted)
			}
		}()
	}
	for _, i := range idx {
		work <- i
	}
	close(work)
	wg.Wait()
	return atts
}

// attemptLocked hands the arbiter replica r's serving attempt for this
// round: the speculative one when it is fresh and its contract still
// matches, an inline switchsim.Run otherwise. The returned contract is
// the one the attempt actually ran under — the round must be judged
// against it.
func (p *Pool) attemptLocked(r *replica, admitted []switchsim.Message) (core.Concentrator, *switchsim.Result, error) {
	if p.spec != nil {
		att := &p.spec[r.id]
		if !att.used && att.c != nil && att.c == r.contract() {
			att.used = true
			return att.c, att.res, att.err
		}
	}
	c := r.contract()
	res, err := switchsim.Run(c, admitted)
	return c, res, err
}

package pool

// Partition-safe primary election. With Config.Lease.Rounds > 0 the
// pool's arbiter stops assuming its view of the replicas is instant and
// symmetric: a control-plane partition plane (internal/partition)
// filters which health observations, probe verdicts, and delivery acks
// it sees each round, while the data plane keeps routing. Safety then
// rests on three mechanisms instead of on perfect visibility:
//
//   - Lease + fencing tokens. The primary role is a time-bounded grant
//     carrying a monotonically increasing fencing token, renewed every
//     round the arbiter hears the holder. A holder that misses Rounds
//     consecutive renewals self-fences (stops serving); the arbiter
//     waits out the same horizon before re-granting with a bumped
//     token, so there is never a round where two boards both hold a
//     *current* grant. Deliveries ack with their grant's token; the
//     ledger books a stale token as Fenced, never Delivered — a late
//     ack from a superseded primary cannot double-deliver.
//
//   - Quorum-gated membership. A round in which the arbiter hears
//     fewer than ⌊N/2⌋+1 replicas freezes membership: no breaker
//     trips, no probe verdicts, no elections. A minority-side arbiter
//     flapping breakers on a stale view is worse than one that waits.
//
//   - Suspicion, not verdicts. Silence advances a per-replica
//     suspicion clock (health.SuspicionClock) and degrades admission
//     to the holder's last-known-good contract; only directly observed
//     evidence (a heard violation, a heard refusal) justifies an early
//     handoff. The Unfenced control inverts exactly this rule — eager
//     failover on suspicion with no ledger fencing — to demonstrate
//     the double-delivery the mechanisms above prevent.

import (
	"fmt"

	"concentrators/internal/partition"
	"concentrators/internal/switchsim"
)

// InjectPartition adds a control-plane partition fault to the pool's
// plane — the chaos harness's split-brain injection port. It requires
// the lease machinery: without fencing, a partitioned legacy arbiter
// has no defined semantics to test.
func (p *Pool) InjectPartition(f partition.Fault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.Lease.Rounds == 0 {
		return fmt.Errorf("pool: partition faults need lease-fenced failover (Config.Lease.Rounds > 0)")
	}
	if f.Replica != partition.AllReplicas && f.Replica >= len(p.replicas) {
		return fmt.Errorf("pool: partition fault replica %d out of range [0,%d)", f.Replica, len(p.replicas))
	}
	if p.pplane == nil {
		p.pplane = partition.NewPlane(p.cfg.Lease.Seed)
	}
	return p.pplane.Add(f)
}

// ClearPartitions drops the partition plane — the heal event. Buffered
// acks flush on the next round, when every edge is visible again.
func (p *Pool) ClearPartitions() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pplane = nil
	return nil
}

// leaseStepLocked is the lease arbiter's per-round step. It decides
// which replicas the arbiter hears (vis: the replica→arbiter direction,
// observations and acks) and reaches (reach: arbiter→replica, grants),
// freezes membership without a quorum, books acks from healed edges,
// lands probe verdicts and maintains the lease. It returns that view
// and the holder allowed to serve: the lease holder while its own
// belief is live — a board whose grant lapsed self-fences even if the
// arbiter still counts it as the holder — and −1 otherwise.
func (p *Pool) leaseStepLocked(round int64, rr *RoundResult) (vis, reach []bool, holder int) {
	vis = make([]bool, len(p.replicas))
	reach = make([]bool, len(p.replicas))
	heard := 0
	for i := range p.replicas {
		vis[i] = p.pplane.Visible(int(round), i, partition.FromReplica)
		reach[i] = p.pplane.Visible(int(round), i, partition.ToReplica)
		if vis[i] {
			heard++
		}
	}
	frozen := heard < len(p.replicas)/2+1
	if frozen {
		p.ledger.FrozenRounds++
		rr.Frozen = true
	}

	// Heal-side bookkeeping first: late acks land before this round's
	// decisions, so a re-heard replica's history informs them.
	p.flushAcksLocked(vis, rr)
	for i, r := range p.replicas {
		if vis[i] {
			p.susp.Hear(i, r.threshold())
		} else {
			p.susp.Miss(i)
		}
	}
	p.probeDueLocked(round, vis, frozen)
	p.leaseMaintainLocked(round, vis, reach, frozen)
	rr.LeaseToken = p.fenceToken

	holder = -1
	if h := p.leaseHolder; h >= 0 {
		r := p.replicas[h]
		if !r.Killed && r.LeaseToken == p.fenceToken && round <= r.LeaseUntil {
			holder = h
		}
	}
	return vis, reach, holder
}

// bookAcksLocked lands one delivery acknowledgement at the ledger: a
// current fencing token books Delivered; a stale one books Fenced —
// unless the unfenced control is on, which accepts it (StaleDelivered)
// to exhibit the split-brain double-delivery fencing prevents.
func (p *Pool) bookAcksLocked(token uint64, frames int, rr *RoundResult) {
	if frames == 0 {
		return
	}
	if token == p.fenceToken {
		p.ledger.Delivered += frames
		return
	}
	if p.cfg.Lease.Unfenced {
		p.ledger.Delivered += frames
		p.ledger.StaleDelivered += frames
		return
	}
	p.ledger.Fenced += frames
	rr.Fenced += frames
}

// flushAcksLocked books every buffered ack whose replica edge is heard
// again this round. The fencing verdict is taken at flush time — a
// delivery that waited out its lease arrives with a stale token.
func (p *Pool) flushAcksLocked(vis []bool, rr *RoundResult) {
	if len(p.inflight) == 0 {
		return
	}
	kept := p.inflight[:0]
	for _, ack := range p.inflight {
		if vis[ack.Replica] {
			p.bookAcksLocked(ack.Token, ack.Frames, rr)
		} else {
			kept = append(kept, ack)
		}
	}
	p.inflight = kept
}

// grantLocked moves the primary lease to replica next under a bumped
// fencing token, revoking the old holder's belief when the revocation
// can reach it. An unreachable old holder keeps believing until its
// grant lapses — the shadow-primary window fencing tokens exist for.
func (p *Pool) grantLocked(round int64, next int, reach []bool) {
	old := p.leaseHolder
	p.fenceToken++
	p.leaseHolder = next
	p.leaseExpiry = round + int64(p.cfg.Lease.Rounds)
	nr := p.replicas[next]
	nr.LeaseToken = p.fenceToken
	nr.LeaseUntil = p.leaseExpiry
	p.active = next
	if old >= 0 && old != next {
		p.ledger.LeaseHandoffs++
		p.ledger.Failovers++
		if reach[old] {
			p.replicas[old].LeaseToken, p.replicas[old].LeaseUntil = 0, -1
		}
	}
}

// unfencedSuspectAfter is the consecutive-unheard-round count that
// triggers the unfenced control's eager failover.
const unfencedSuspectAfter = 2

// leaseMaintainLocked is the per-round lease state machine: renew a
// heard healthy holder, hand off on directly observed failure or after
// the lease horizon passes in silence, and never move the role from a
// minority view.
func (p *Pool) leaseMaintainLocked(round int64, vis, reach []bool, frozen bool) {
	if frozen {
		// Minority-side arbiter: freeze. The incumbent coasts on its
		// outstanding grant; quorum decisions wait for the heal.
		return
	}
	h := p.leaseHolder
	if h >= 0 {
		r := p.replicas[h]
		switch {
		case vis[h] && r.servable():
			// Renew. The grant itself only lands if the to-replica
			// direction is up; an asymmetric cut lets the arbiter's
			// horizon advance while the board's belief ages out.
			p.leaseExpiry = round + int64(p.cfg.Lease.Rounds)
			if reach[h] {
				r.LeaseToken = p.fenceToken
				r.LeaseUntil = p.leaseExpiry
			}
			if round <= r.LeaseUntil {
				return // holder is serving under a live belief
			}
			// Heard, willing, self-fenced, and unreachable: the arbiter
			// watches refusals it cannot repair — hand off.
		case vis[h] && !r.servable():
			// Directly observed failure (killed, quarantined, zero
			// threshold): safe to hand off immediately.
		default:
			// Unheard: suspicion only. The fenced arbiter waits out the
			// lease; the unfenced control fails over eagerly — exactly
			// the split-brain mistake fencing exists to contain.
			eager := p.cfg.Lease.Unfenced && p.susp.Unheard(h) >= unfencedSuspectAfter
			if round <= p.leaseExpiry && !eager {
				return
			}
		}
	}
	if next := p.bestLocked(nil, vis, reach); next >= 0 {
		p.grantLocked(round, next, reach)
	}
	// Nothing electable: the incumbent (if any) keeps coasting on its
	// belief; the arbiter retries next round.
}

// shadowServeLocked runs the round's admitted batch on every stale
// believer — a board serving on a superseded grant still routes what
// the data plane carries. Its frames are ground truth (ShadowDelivered)
// and its acks take the fencing verdict like any other delivery.
func (p *Pool) shadowServeLocked(round int64, admitted []switchsim.Message, rr *RoundResult, vis []bool, primaryFrames int) {
	if len(admitted) == 0 {
		return
	}
	dual := false
	for _, s := range p.replicas {
		if s.Killed || s.LeaseToken == 0 || s.LeaseToken == p.fenceToken ||
			round > s.LeaseUntil || s.ID == rr.ServedBy {
			continue
		}
		res, err := switchsim.Run(s.contract(), admitted)
		if err != nil {
			continue
		}
		res, _ = p.applyWireNoiseLocked(s, round, res)
		frames := len(res.Delivered)
		if frames == 0 {
			continue
		}
		rr.ShadowDelivered += frames
		p.ledger.ShadowServed += frames
		dual = dual || primaryFrames > 0
		if vis[s.ID] {
			p.bookAcksLocked(s.LeaseToken, frames, rr)
		} else {
			p.inflight = append(p.inflight, PendingAck{Replica: s.ID, Token: s.LeaseToken, Frames: frames})
		}
	}
	if dual {
		p.ledger.DualPrimaryRounds++
	}
}

// serveDarkLocked routes the round on a holder the arbiter cannot hear
// (or must not judge from a frozen minority view): the board serves
// under its believed grant, physical wire noise still strips frames,
// but there is no contract verdict, no breaker, no hedge — and the
// delivery ack buffers behind the partition to take its fencing
// verdict when the edge heals.
func (p *Pool) serveDarkLocked(round int64, admitted []switchsim.Message, rr *RoundResult, vis []bool) int {
	r := p.replicas[p.leaseHolder]
	res, err := switchsim.Run(r.contract(), admitted)
	if err != nil {
		rr.Violated = true
		p.ledger.Violations++
		return 0
	}
	res, _ = p.applyWireNoiseLocked(r, round, res)
	r.RoundsServed++
	rr.Latency = 1 + p.timingDelayLocked(r, round)
	rr.Result = res
	rr.ServedBy = r.ID
	frames := len(res.Delivered)
	if vis[r.ID] {
		// Frozen but heard: the ack lands now, under the current token.
		p.bookAcksLocked(r.LeaseToken, frames, rr)
	} else if frames > 0 {
		p.inflight = append(p.inflight, PendingAck{Replica: r.ID, Token: r.LeaseToken, Frames: frames})
	}
	return frames
}

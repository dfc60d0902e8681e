package pool

// Byzantine containment: how the pool books a round when replicas may
// lie, and how liars are convicted.
//
// The ledger's trust boundary moves from the fabric to the edges. The
// sending edge (the pool's ingress, which holds the checksum key)
// stamps every physically delivered frame with [epoch][seq][keyed
// checksum] provenance; the serving replica merely *claims* what it
// delivered; the receiving edge re-derives every sum and slides a
// dedup window before anything reaches Delivered. A fabricated ack has
// no key behind it and books Forged; a replayed frame carries a
// genuine-but-spent tag and books Duplicated; neither is ever counted
// Delivered — the two new terms of the eight-term conservation law.
//
// Two lies survive the edge check, and each has its own detector:
//
//   - A misrouted frame is physically delivered with a genuine payload
//     and tag — only the acked input→output association lies. Seeded
//     witness audits re-route the same admitted set through up to two
//     spare replicas and cross-examine the sampled claim
//     majority-of-3 (health.CrossExamine); persistent disagreement
//     convicts the primary through the standard
//     breaker→quarantine→canary path.
//   - An equivocator lies about *state*, not frames: its health report
//     forks between the arbiter and its peers. The arbiter cross-checks
//     the report against the ledger evidence it just verified itself,
//     and a caught fork trips the breaker — under the lease machinery
//     the equivocator thereby stops being servable and loses the lease
//     at the next maintenance pass, fenced behind a bumped token.
//
// Scope: the settle path covers every round the serving loop accepts,
// under either arbiter — Route rounds included, whose frames carry
// empty payloads. Dark and shadow partition serving books through the
// fencing ledger, whose acks are already provenance of a different kind
// (the chaos harness never combines the byzantine and partition
// planes).

import (
	"fmt"
	"slices"

	"concentrators/internal/bitvec"
	"concentrators/internal/byzantine"
	"concentrators/internal/health"
	"concentrators/internal/seedrand"
	"concentrators/internal/switchsim"
)

// recentCap bounds each replica's replay surface: a Replay fault can
// only re-emit frames recent enough to sit in this ring (and a dedup
// window shorter than the ring still catches them — the ring rides
// checkpoints, so it stays O(1) in session length).
const recentCap = 16

// auditSalt decorrelates the audit sampling draw from every other
// consumer of the byzantine seed.
const auditSalt = 0x082EFA98EC4E6C89

// InjectBehavior adds a byzantine behavior fault to the pool's plane
// (installing the plane, seeded from Config.Byzantine.Seed, on first
// use). The plane schedules *lies*; whether they reach the ledger is
// Config.Byzantine.Verify's job.
func (p *Pool) InjectBehavior(f byzantine.Fault) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.Replica >= len(p.replicas) {
		return fmt.Errorf("pool: behavior fault names replica %d, pool has %d", f.Replica, len(p.replicas))
	}
	if p.bplane == nil {
		p.bplane = byzantine.NewPlane(p.cfg.Byzantine.Seed)
	}
	return p.bplane.Add(f)
}

// ensureEdgesLocked lazily keys the sending and receiving edges from
// the configured seed.
func (p *Pool) ensureEdgesLocked() {
	if p.stamper == nil {
		key := byzantine.DeriveKey(p.cfg.Byzantine.Seed)
		p.stamper = byzantine.NewStamper(key)
		p.verifier = byzantine.NewVerifier(key)
	}
}

// settleClaimsLocked books an accepted round's deliveries. With no
// behavior plane and verification off it is exactly the legacy
// `Delivered += frames` — bit-identical pre-byzantine trajectories.
// Otherwise the round settles as a claim stream: genuine frames are
// stamped at the sending edge, the serving actor's scheduled lies are
// applied to the claims (never to the physical Result), and the
// receiving edge verifies — or, in the unverified control, blindly
// trusts — every claim into Delivered/Forged/Duplicated.
func (p *Pool) settleClaimsLocked(r *replica, round int64, wres *switchsim.Result, admitted []switchsim.Message, rr *RoundResult) {
	physical := len(wres.Delivered)
	rr.TrueDelivered = physical
	if p.bplane == nil && !p.cfg.Byzantine.Verify {
		p.ledger.Delivered += physical
		return
	}
	p.ensureEdgesLocked()
	epoch := r.LeaseToken
	rnd := int(round)

	// Sending edge: stamp every physically delivered frame.
	claims := make([]byzantine.Claim, 0, physical)
	for _, d := range wres.Delivered {
		claims = append(claims, byzantine.Claim{
			Input: d.Input, Output: d.Output, Payload: d.Payload,
			Tag: p.stamper.Stamp(epoch, d.Payload),
		})
	}

	// The actor's scheduled lies, applied to the claim stream only.
	if k := p.bplane.Misroutes(rnd, r.ID); k > 0 && physical > 0 && p.m > 1 {
		// A misrouted frame keeps its genuine payload and tag; only the
		// acked output moves — guaranteed to a different output, so the
		// lie is real whenever the plane says so.
		for d := 0; d < k; d++ {
			c := &claims[p.bplane.Pick(rnd, r.ID, 2*d, physical)]
			c.Output = (c.Output + 1 + p.bplane.Pick(rnd, r.ID, 2*d+1, p.m-1)) % p.m
			rr.Misrouted++
		}
	}
	for d := 0; d < p.bplane.Replays(rnd, r.ID) && len(r.Recent) > 0; d++ {
		claims = append(claims, r.Recent[p.bplane.Pick(rnd, r.ID, 64+d, len(r.Recent))])
		rr.ReplayedInjected++
	}
	for d := 0; d < p.bplane.Fabrications(rnd, r.ID); d++ {
		// The forger copies plausible public header fields but holds no
		// key: the sum is ForgeSum garbage.
		claims = append(claims, byzantine.Claim{
			Input:  p.bplane.Pick(rnd, r.ID, 128+2*d, p.n),
			Output: p.bplane.Pick(rnd, r.ID, 129+2*d, p.m),
			Tag: byzantine.Tag{
				Epoch: uint32(epoch & (1<<byzantine.EpochBits - 1)),
				Seq:   p.stamper.NextSeq() + uint32(d),
				Sum:   p.bplane.ForgeSum(rnd, r.ID, d),
			},
		})
		rr.ForgedInjected++
	}
	// Only now does this round's genuine traffic enter the replay
	// surface: a replay re-emits *prior* rounds' frames. The claims that
	// stay in the ring get their own payloads, since Run hands the
	// Result they alias to the caller.
	for _, c := range claims[max(0, physical-recentCap):physical] {
		c.Payload = slices.Clone(c.Payload)
		r.Recent = append(r.Recent, c)
	}
	if len(r.Recent) > recentCap {
		r.Recent = r.Recent[len(r.Recent)-recentCap:]
	}

	// Receiving edge: every claim crosses the full bit-stream framing —
	// encode, decode, re-derive the keyed sum, slide the dedup window.
	booked := 0
	if p.cfg.Byzantine.Verify {
		for _, c := range claims {
			switch p.verifier.VerifyBits(byzantine.EncodeTag(c.Tag), c.Payload) {
			case byzantine.VerdictOK:
				booked++
			case byzantine.VerdictForged:
				rr.Forged++
				p.ledger.Forged++
			case byzantine.VerdictDuplicated:
				rr.Duplicated++
				p.ledger.Duplicated++
			}
		}
	} else {
		// The unverified control takes every claim at face value:
		// replays and fabrications double-count straight into Delivered.
		booked = len(claims)
	}
	p.ledger.Delivered += booked

	p.auditLocked(r, round, claims[:physical], admitted, rr)

	// Arbiter cross-check: the actor's (possibly forked) health report
	// against the ledger evidence just booked. A fork between audiences
	// — or an arbiter-side claim the ledger cannot back — trips the
	// breaker; under the lease machinery the convict stops being
	// servable, so the next maintenance pass hands the lease off and
	// the bumped fencing token locks the equivocator out.
	if p.bplane.Equivocating(rnd, r.ID) {
		claim := health.HealthClaim{
			ToArbiter: booked + p.bplane.Inflation(rnd, r.ID),
			ToPeers:   max(booked-1, 0),
		}
		if claim.Equivocates(booked) {
			rr.Equivocated = true
			p.ledger.Equivocations++
			if r.State != Quarantined {
				p.trip(r, round)
			}
		}
	}
}

// auditLocked runs the round's seeded witness cross-examination, due
// every AuditEvery rounds: one physically delivered claim is sampled
// and the same admitted set is re-routed through up to two healthy
// witness replicas; health.CrossExamine renders the majority-of-3
// verdict and the tally converts persistent contradiction into a
// breaker trip. Audits compare routings, so they run only between
// replicas serving the full contract — a degraded board routes
// legitimately differently, and its faults are BIST's to localize.
func (p *Pool) auditLocked(r *replica, round int64, claims []byzantine.Claim, admitted []switchsim.Message, rr *RoundResult) {
	every := p.cfg.Byzantine.AuditEvery
	if !p.cfg.Byzantine.Verify || every <= 0 || len(claims) == 0 || r.degraded != nil {
		return
	}
	seed := uint64(p.cfg.Byzantine.Seed)
	if int(round)%every != int(seedrand.Mix64(seed)%uint64(every)) {
		return
	}
	c := claims[seedrand.Mix64(seed^auditSalt^seedrand.Mix64(uint64(round)))%uint64(len(claims))]
	valid := bitvec.New(p.n)
	for _, m := range admitted {
		valid.Set(m.Input, true)
	}
	var wouts []int
	usable := 0
	for _, w := range p.replicas {
		if len(wouts) == 2 {
			break
		}
		if w.ID == r.ID || w.Killed || w.State == Quarantined || w.degraded != nil {
			continue
		}
		wout := -1
		if out, err := w.contract().Route(valid); err == nil && c.Input < len(out) {
			wout = out[c.Input]
		}
		if wout >= 0 {
			usable++
		}
		wouts = append(wouts, wout)
	}
	p.ledger.Audits++
	verdict := health.CrossExamine(c.Output, wouts)
	if verdict == health.WitnessContradicted {
		p.ledger.AuditDisagreements++
	}
	if p.wtally == nil {
		p.wtally = health.NewWitnessTally(len(p.replicas))
	}
	if p.wtally.Observe(r.ID, verdict, usable) {
		p.ledger.WitnessConvictions++
		if r.State != Quarantined {
			p.trip(r, round)
		}
	}
}

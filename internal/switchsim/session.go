package switchsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"concentrators/internal/core"
	"concentrators/internal/overload"
)

// Policy is a congestion-control discipline for messages that a
// congested switch could not route — the three options §1 of the paper
// names: "to buffer them, to misroute them, or to simply drop them and
// rely on a higher-level acknowledgment protocol to detect this
// situation and resend them."
type Policy int

// The congestion-control policies of §1.
const (
	// Drop discards unrouted messages permanently.
	Drop Policy = iota
	// Resend re-offers unrouted messages in the next round (the
	// acknowledgment-protocol model: the sender learns of the drop
	// after the round and retries).
	Resend
	// Buffer holds unrouted messages at their input wire; the input
	// cannot accept a new message until its buffered one departs.
	Buffer
	// Misroute deflects unrouted messages: they wander the network for
	// a round and re-enter at a random free input next round. The
	// original input is NOT blocked (the message has left the sender),
	// but a deflected message may displace nothing — if no input is
	// free it keeps wandering.
	Misroute
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Drop:
		return "drop"
	case Resend:
		return "resend"
	case Buffer:
		return "buffer"
	case Misroute:
		return "misroute"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// SessionConfig drives a multi-round Session.
type SessionConfig struct {
	Policy Policy
	// Load is the per-input probability of a new message each round.
	Load float64
	// Rounds is the number of setup-and-stream rounds to simulate.
	Rounds int
	// PayloadBits is the payload length of each message.
	PayloadBits int
	// Seed feeds the traffic generator.
	Seed int64
	// AckDelay (Resend policy only) is the extra rounds before the
	// sender learns of a drop and retries — the acknowledgment
	// protocol's round trip. Zero means retry the very next round,
	// which makes Resend behave like Buffer; a real ack protocol has
	// AckDelay ≥ 1.
	AckDelay int
	// Deadline is the per-message deadline budget in rounds: a message
	// delivered with latency above the budget is booked DeadlineMissed
	// instead of Delivered — it arrived, but past its SLO, which for a
	// switch core budgeting per-stage latency is a loss. 0 disables
	// deadline accounting.
	Deadline int
	// Integrity, when non-nil, runs the session with wire-level
	// data-plane integrity: CRC-framed payloads, sliding-window ARQ
	// over the Resend ack machinery, and per-link corruption tracking.
	// Requires Policy == Resend (ARQ *is* the resend protocol).
	Integrity *IntegrityConfig
	// Surge, when non-nil, is the overload fault plane: each round's
	// arrival probability is Load multiplied by the plane's (seeded,
	// deterministic) surge multiplier, clamped to [0, 1]. Composes with
	// every policy, including Integrity sessions.
	Surge *overload.Plane
	// CoDel, when non-nil, drains the Resend/Buffer backlog with the
	// controlled-delay rule: once backlog age exceeds the target for a
	// full interval, queue heads are shed (booked Shed) instead of
	// buffering without bound. Only the Resend and Buffer policies have
	// a backlog to drain; Integrity sessions have their own ARQ
	// retransmit budget and cannot carry it.
	CoDel *overload.CoDelConfig
	// RetryBudget, when non-nil, puts the Resend clients on a retry
	// budget with jittered exponential backoff: a congestion drop
	// re-offers only while the token bucket has credit (earned by
	// fresh offers) and waits a full-jitter exponential backoff instead
	// of the fixed ack round trip; over budget, the message is shed.
	// Requires Policy == Resend (only resend has client retries);
	// Integrity sessions have their own ARQ budget and cannot carry it.
	RetryBudget *overload.RetryConfig
}

// Validate rejects configurations that would previously have been
// silently clamped or misbehaved: non-positive rounds, a load outside
// [0, 1] (including NaN), messages with no payload bits, a negative
// ack round trip, an unknown policy, an AckDelay on a policy that has
// no acknowledgment protocol (it would silently be a no-op), or a
// malformed integrity layer.
func (cfg SessionConfig) Validate() error {
	switch {
	case cfg.Rounds < 1:
		return fmt.Errorf("switchsim: session needs ≥ 1 round, got %d", cfg.Rounds)
	case math.IsNaN(cfg.Load) || cfg.Load < 0 || cfg.Load > 1:
		return fmt.Errorf("switchsim: load %v outside [0,1]", cfg.Load)
	case cfg.PayloadBits < 1:
		return fmt.Errorf("switchsim: payload must be ≥ 1 bit, got %d", cfg.PayloadBits)
	case cfg.AckDelay < 0:
		return fmt.Errorf("switchsim: negative ack delay %d", cfg.AckDelay)
	case cfg.Deadline < 0:
		return fmt.Errorf("switchsim: negative deadline budget %d", cfg.Deadline)
	case cfg.Policy < Drop || cfg.Policy > Misroute:
		return fmt.Errorf("switchsim: unknown policy %v", cfg.Policy)
	case cfg.AckDelay > 0 && cfg.Policy != Resend:
		return fmt.Errorf("switchsim: AckDelay %d is meaningless under the %s policy (only resend has an acknowledgment protocol)",
			cfg.AckDelay, cfg.Policy)
	}
	if cfg.Integrity != nil {
		if cfg.Policy != Resend {
			return fmt.Errorf("switchsim: integrity ARQ rides the resend ack protocol; policy %s cannot carry it", cfg.Policy)
		}
		if err := cfg.Integrity.Validate(); err != nil {
			return err
		}
	}
	if cfg.CoDel != nil {
		if cfg.Policy != Resend && cfg.Policy != Buffer {
			return fmt.Errorf("switchsim: CoDel drains a retry or buffer backlog; policy %s has none", cfg.Policy)
		}
		if cfg.Integrity != nil {
			return fmt.Errorf("switchsim: CoDel cannot ride an integrity session (ARQ has its own retransmit budget)")
		}
		if err := cfg.CoDel.Validate(); err != nil {
			return err
		}
	}
	if cfg.RetryBudget != nil {
		if cfg.Policy != Resend {
			return fmt.Errorf("switchsim: a retry budget needs the resend policy's client retries; policy %s has none", cfg.Policy)
		}
		if cfg.Integrity != nil {
			return fmt.Errorf("switchsim: a retry budget cannot ride an integrity session (ARQ has its own retransmit budget)")
		}
		if err := cfg.RetryBudget.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SessionStats summarizes a Session run.
type SessionStats struct {
	Policy    Policy
	Offered   int // messages generated
	Delivered int
	Dropped   int // permanently lost (Drop policy; exhausted clean retransmit budget)
	// CorruptedDropped counts messages abandoned after the ARQ
	// retransmit budget was exhausted with wire corruption involved —
	// the integrity layer's explicit give-up accounting.
	CorruptedDropped int
	// DeadlineMissed counts messages that arrived past the session's
	// Deadline budget: delivered by the fabric, lost to the SLO. They
	// are never counted in Delivered; the extended conservation law is
	// Offered = Delivered + Dropped + CorruptedDropped + DeadlineMissed
	// + Shed + FinalBacklog.
	DeadlineMissed int
	// Shed counts messages the overload machinery gave up on: retries
	// denied by the RetryBudget token bucket plus backlog heads drained
	// by the CoDel sojourn rule. Disjoint from Dropped (the fabric
	// never permanently lost them — the control plane chose to).
	Shed int
	// Fenced counts deliveries the ledger rejected because the serving
	// replica's lease fencing token had gone stale — the primary role
	// moved on while the ack was in flight. Fenced frames are never
	// counted Delivered. Plain sessions run a single switch and never
	// fence (the term is always 0 here); the replicated pool books the
	// term (pool.Stats.Fenced), and the seven-term conservation law is
	// Offered = Delivered + Dropped + CorruptedDropped + DeadlineMissed
	// + Shed + Fenced + FinalBacklog.
	Fenced int
	// Forged counts delivery claims rejected because their provenance
	// tag failed the receiving edge's keyed checksum; Duplicated counts
	// claims whose valid tag repeated inside the sliding dedup window
	// (a replayed frame). Neither is ever counted Delivered. Plain
	// sessions run a single trusted switch and book both terms 0; the
	// replicated pool books them (pool.Stats.Forged/Duplicated), and
	// the full eight-term conservation law is
	// Offered = Delivered + Dropped + CorruptedDropped + DeadlineMissed
	// + Shed + Fenced + Forged + Duplicated + FinalBacklog.
	Forged, Duplicated int
	Refused            int // arrivals refused because the input was occupied (Buffer)
	Retries            int // re-offered attempts (Resend/Buffer)
	// RetriedDelivered counts delivered messages that needed more than
	// one offer to the switch — the slice of Delivered whose latency
	// includes retry round trips.
	RetriedDelivered int
	// LatencyHistogram[r] counts messages delivered r rounds after
	// their first offer (0 = same round).
	LatencyHistogram map[int]int
	// FirstTryLatencyHistogram and RetriedLatencyHistogram split
	// LatencyHistogram by whether the delivery needed re-offers, so the
	// ARQ/retry latency cost is visible separately from queueing delay.
	// LatencyHistogram remains their exact sum (backward compatible).
	FirstTryLatencyHistogram map[int]int
	RetriedLatencyHistogram  map[int]int
	// MissedLatencyHistogram[r] counts deadline-missed messages that
	// arrived r rounds after their first offer — the tail the SLO cut
	// off. Disjoint from LatencyHistogram.
	MissedLatencyHistogram map[int]int
	// MaxBacklog is the peak number of waiting messages — messages
	// parked in the retry pool (Resend/Misroute) or held at their input
	// wires (Buffer) — measured after each round's routing.
	MaxBacklog int
	// MaxOffered is the peak number of messages offered to the switch
	// in any single round (new arrivals plus re-offers).
	MaxOffered int
	// DeliveredPerRound[r] is the number of messages delivered in
	// round r.
	DeliveredPerRound []int
	// FinalBacklog counts messages still waiting (retry pool, buffers,
	// or ARQ queues/windows) when the session ended — the closing term
	// of the conservation law.
	FinalBacklog int
	// Integrity carries the wire-level integrity observability; nil
	// unless the session ran with SessionConfig.Integrity.
	Integrity *IntegrityStats
}

// bookDelivery files one accepted delivery against the deadline
// budget: on time it is Delivered, in the combined and split latency
// histograms (retried marks a message that needed more than one offer
// to the switch); late it is DeadlineMissed.
func (s *SessionStats) bookDelivery(latency int, retried bool, deadline int) {
	if deadline > 0 && latency > deadline {
		s.DeadlineMissed++
		s.MissedLatencyHistogram[latency]++
		return
	}
	s.Delivered++
	s.LatencyHistogram[latency]++
	if retried {
		s.RetriedDelivered++
		s.RetriedLatencyHistogram[latency]++
	} else {
		s.FirstTryLatencyHistogram[latency]++
	}
}

// Quantile returns a witnessed on-time delivery latency at the
// q-quantile of LatencyHistogram (the latency of the ⌈q·delivered⌉-th
// fastest delivery). ok is false when nothing was delivered or q is
// NaN or outside [0, 1]. Quantile is monotone in q and every returned
// value is a latency that actually occurred.
func (s SessionStats) Quantile(q float64) (lat int, ok bool) {
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, false
	}
	total := 0
	for _, c := range s.LatencyHistogram {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	lats := make([]int, 0, len(s.LatencyHistogram))
	for l := range s.LatencyHistogram {
		lats = append(lats, l)
	}
	sort.Ints(lats)
	seen := 0
	for _, l := range lats {
		seen += s.LatencyHistogram[l]
		if seen >= rank {
			return l, true
		}
	}
	return lats[len(lats)-1], true
}

// P50 returns the witnessed median delivery latency (0 when empty).
func (s SessionStats) P50() int { lat, _ := s.Quantile(0.50); return lat }

// P99 returns the witnessed 99th-percentile latency (0 when empty).
func (s SessionStats) P99() int { lat, _ := s.Quantile(0.99); return lat }

// P999 returns the witnessed 99.9th-percentile latency (0 when empty).
func (s SessionStats) P999() int { lat, _ := s.Quantile(0.999); return lat }

// MeanLatency returns the average delivery latency in rounds.
func (s SessionStats) MeanLatency() float64 {
	total, count := 0, 0
	for r, c := range s.LatencyHistogram {
		total += r * c
		count += c
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// pendingRec is one backlog entry, in the form the journal writes it.
type pendingRec struct {
	Input, FirstRound int
	// Eligible is the first round the message may be (re-)offered;
	// Offers counts how many times it entered the switch.
	Eligible, Offers int
}

// newSessionStats builds the stats record with every histogram live.
func newSessionStats(cfg SessionConfig) *SessionStats {
	return &SessionStats{
		Policy:                   cfg.Policy,
		LatencyHistogram:         map[int]int{},
		FirstTryLatencyHistogram: map[int]int{},
		RetriedLatencyHistogram:  map[int]int{},
		MissedLatencyHistogram:   map[int]int{},
		DeliveredPerRound:        make([]int, cfg.Rounds),
	}
}

// Session is the round machine of every session driver but the ARQ
// engine: the complete between-rounds state of a session — everything
// a round's execution reads or writes — and Step, the one
// implementation of the §1 policies. RunSession drives it straight
// through; the durable runner drives it round-at-a-time, journaling the
// state between steps and rebuilding it after a crash; the health
// plane's fault-aware session steps it on whichever contract, raw or
// degraded, is active. The RNG is not part of the state, but every
// driver feeds Step the one math/rand stream of the session seed:
// RunSession and the fault-aware session from rand.NewSource, the
// durable runner from a seedrand.Stream, whose position it journals and
// seeks back to on recovery. So a crash-free durable session equals
// RunSession.
type Session struct {
	cfg   SessionConfig
	n     int // input wires
	stats *SessionStats
	// backoffCap bounds the Resend ack timeout (see NewSession).
	backoffCap int

	budget *overload.RetryBudget
	codel  *overload.CoDel

	// pending is the backlog: retries (Resend), deflected messages
	// (Misroute), or messages held at their input wires (Buffer, kept
	// in ascending input order because Run reports drops in the order
	// of the input-sorted offers). The journal writes it as it stands.
	// Step builds the next backlog in spare, the other of two backings
	// it swaps each round, since this round's offers point into pending.
	pending, spare []pendingRec

	// round is the next round to execute.
	round int
	// runner streams the rounds; Step builds a new one only when the
	// switch it is given changes.
	runner *Runner
	// Step's buffers, sized once for n inputs and reused every round:
	// the offer table, the marker of an input whose sender is blocked,
	// the records of fresh arrivals, the payload bits, the message list
	// Step returns and a deflected message's candidate inputs
	// (Misroute).
	offered  []*pendingRec
	blocked  pendingRec
	fresh    []pendingRec
	payloads []byte
	msgs     []Message
	perm     []int
	// rec is the journal record of the round Step last executed: Step
	// books the round into it and applies it to stats whole (see
	// SessionStats.apply), the durable runner completes and writes it.
	rec deltaRec
}

// NewSession builds the machine at round 0. cfg must pass Validate and
// carry no Integrity layer (the ARQ engine runs its own step).
// backoffCap bounds the Resend ack timeout: after a message's k-th
// offer is dropped it waits AckDelay·2^(k−1) extra rounds, at most
// backoffCap, so a cap of AckDelay is the fixed ack round trip. A
// RetryBudget's jittered backoff replaces the doubling.
func NewSession(sw core.Concentrator, cfg SessionConfig, backoffCap int) (*Session, error) {
	if cfg.Integrity != nil {
		return nil, fmt.Errorf("switchsim: integrity sessions run the ARQ engine, not the session round machine")
	}
	n := sw.Inputs()
	st := &Session{
		cfg:        cfg,
		n:          n,
		stats:      newSessionStats(cfg),
		backoffCap: backoffCap,
		offered:    make([]*pendingRec, n),
		fresh:      make([]pendingRec, n),
		payloads:   make([]byte, n*cfg.PayloadBits),
		msgs:       make([]Message, 0, n),
	}
	if cfg.Policy == Misroute {
		st.perm = make([]int, n)
	}
	if cfg.RetryBudget != nil {
		b, err := overload.NewRetryBudget(*cfg.RetryBudget)
		if err != nil {
			return nil, err
		}
		st.budget = b
	}
	if cfg.CoDel != nil {
		c, err := overload.NewCoDel(*cfg.CoDel)
		if err != nil {
			return nil, err
		}
		st.codel = c
	}
	return st, nil
}

// backlog counts the waiting messages.
func (st *Session) backlog() int { return len(st.pending) }

// Finish closes the books and returns the stats.
func (st *Session) Finish() *SessionStats {
	st.stats.FinalBacklog = st.backlog()
	return st.stats
}

// permute returns rng.Perm(n) in the Session's buffer: the same loop,
// so the same Intn(i+1) draws, which every Misroute transcript hashes,
// and the same order. Step i copies slot j ≤ i into slot i and then
// writes i into slot j, so a stale value read at j = i is overwritten
// at once: the buffer's old contents never reach the result.
func (st *Session) permute(rng *rand.Rand) []int {
	p := st.perm
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// retryDelay is the Resend ack timeout after a message's offers-th
// offer was dropped.
func (st *Session) retryDelay(offers int) int {
	d := st.cfg.AckDelay
	for i := 1; i < offers && d < st.backoffCap; i++ {
		d *= 2
	}
	return min(d, st.backoffCap)
}

// Step executes one round — CoDel drain, re-offers, new arrivals,
// routing through sw, per-policy disposition — and advances the round
// counter. It books the round into the round's journal record and
// applies that to the ledger, as journal replay applies a committed
// one. It returns the messages offered to sw and sw's Result, both
// nil on a round with no offers; both are the Session's, payloads
// included, and are valid until the next Step. Deterministic in
// (state, rng stream):
// re-running a step from identical state with an identically
// positioned rng reproduces it bit for bit, which is what crash
// recovery's re-execution relies on.
func (st *Session) Step(sw core.Concentrator, rng *rand.Rand) ([]Message, *Result, error) {
	cfg, stats, round := st.cfg, st.stats, st.round
	st.round++
	rec := &st.rec
	*rec = deltaRec{Round: round, FirstTry: rec.FirstTry[:0], Retried: rec.Retried[:0], Missed: rec.Missed[:0]}

	// The CoDel drain runs before this round's offers: backlog heads
	// (oldest first, ties by input) are shed while the sojourn rule
	// says the backlog has stood above target for a full interval.
	if st.codel != nil {
		for len(st.pending) > 0 {
			oi := 0
			for i, pm := range st.pending {
				o := st.pending[oi]
				if pm.FirstRound < o.FirstRound || (pm.FirstRound == o.FirstRound && pm.Input < o.Input) {
					oi = i
				}
			}
			if !st.codel.Drop(round, round-st.pending[oi].FirstRound) {
				break
			}
			st.pending = append(st.pending[:oi], st.pending[oi+1:]...)
			rec.DShed++
		}
	}

	// offered[in] is this round's offer on input in, and count how many
	// there are. A sender still blocked on an unacknowledged message
	// that is not yet eligible to retry holds its input with
	// &st.blocked.
	offered := st.offered
	clear(offered)
	count := 0
	blocked := &st.blocked
	waiting := st.spare[:0]
	for i := range st.pending {
		pm := &st.pending[i]
		switch {
		case cfg.Policy == Misroute:
			// Deflected messages re-enter at random free inputs; with
			// every input occupied they keep wandering another round.
			in := -1
			for _, cand := range st.permute(rng) {
				if offered[cand] == nil {
					in = cand
					break
				}
			}
			if in == -1 {
				waiting = append(waiting, *pm)
				continue
			}
			pm.Input = in
		case offered[pm.Input] != nil:
			// Two waiting messages for one input cannot happen: the
			// backlog holds at most one per input.
			return nil, nil, fmt.Errorf("switchsim: duplicate retry for input %d", pm.Input)
		case pm.Eligible > round:
			// A Resend retry re-enters on its original input once the
			// ack timeout elapses; until then its sender is blocked. A
			// buffered message is always eligible.
			waiting = append(waiting, *pm)
			offered[pm.Input] = blocked
			continue
		}
		offered[pm.Input] = pm
		count++
		rec.DRetries++
	}
	st.pending, st.spare = waiting, st.pending

	// New arrivals, at the surge plane's multiplied load.
	load := cfg.Surge.Load(round, cfg.Load)
	for in := 0; in < st.n; in++ {
		if rng.Float64() >= load {
			continue
		}
		if offered[in] != nil {
			rec.DRefused++
			continue
		}
		st.fresh[in] = pendingRec{Input: in, FirstRound: round}
		offered[in] = &st.fresh[in]
		count++
		rec.DOffered++
		if st.budget != nil {
			st.budget.Earn()
		}
	}

	rec.MaxOffered = max(stats.MaxOffered, count)
	if count == 0 {
		st.closeRound()
		return nil, nil, nil
	}

	// Offers enter the fabric in input order. The fixed order matters:
	// payload bits and retry backoffs draw from the shared rng stream,
	// and crash recovery re-executes rounds expecting bit-identical
	// draws.
	msgs := st.msgs[:0]
	pb := cfg.PayloadBits
	for in, pm := range offered {
		if pm == nil || pm == blocked {
			continue
		}
		pm.Offers++
		k := len(msgs) * pb
		payload := st.payloads[k : k+pb : k+pb]
		for b := range payload {
			payload[b] = byte(rng.Intn(2))
		}
		msgs = append(msgs, Message{Input: in, Payload: payload})
	}
	st.msgs = msgs
	if st.runner == nil || st.runner.Switch() != sw {
		st.runner = NewRunner(sw)
	}
	res, err := st.runner.Run(msgs)
	if err != nil {
		return nil, nil, err
	}
	// Every delivery counts toward DeliveredThisRound; with a deadline
	// budget, late ones book DeadlineMissed instead of Delivered.
	rec.DeliveredThisRound = len(res.Delivered)
	for _, d := range res.Delivered {
		pm := offered[d.Input]
		switch lat := round - pm.FirstRound; {
		case cfg.Deadline > 0 && lat > cfg.Deadline:
			rec.Missed = addEvent(rec.Missed, lat)
		case pm.Offers > 1:
			rec.Retried = addEvent(rec.Retried, lat)
		default:
			rec.FirstTry = addEvent(rec.FirstTry, lat)
		}
	}
	for _, in := range res.DroppedInputs {
		pm := offered[in]
		switch cfg.Policy {
		case Drop:
			rec.DDropped++
			continue
		case Resend:
			switch {
			case st.budget == nil:
				pm.Eligible = round + 1 + st.retryDelay(pm.Offers)
			case !st.budget.Allow():
				// Over the retry budget: fail fast instead of feeding
				// the storm. The input wire is freed.
				rec.DShed++
				continue
			default:
				// Full-jitter exponential backoff desynchronizes the
				// shed cohort (Backoff ≥ 1 keeps the ack RTT).
				pm.Eligible = round + cfg.AckDelay + st.budget.Backoff(pm.Offers, rng)
			}
		}
		st.pending = append(st.pending, *pm)
	}
	st.closeRound()
	return msgs, res, nil
}

// closeRound records the post-round backlog watermark and applies the
// round's record to the ledger.
func (st *Session) closeRound() {
	st.rec.MaxBacklog = max(st.stats.MaxBacklog, st.backlog())
	st.stats.apply(&st.rec)
}

// RunSession simulates a multi-round message session through the switch
// under the configured congestion-control policy. Each round: pending
// and newly generated messages are offered (one per input wire), the
// switch routes, and unrouted messages are handled per policy.
func RunSession(sw core.Concentrator, cfg SessionConfig) (*SessionStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Integrity != nil {
		return runIntegritySession(sw, cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	st, err := NewSession(sw, cfg, cfg.AckDelay)
	if err != nil {
		return nil, err
	}
	for st.round < cfg.Rounds {
		if _, _, err := st.Step(sw, rng); err != nil {
			return nil, err
		}
	}
	return st.Finish(), nil
}

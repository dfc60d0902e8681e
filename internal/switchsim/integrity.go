// Wire-level data-plane integrity: CRC-framed payloads and a
// sliding-window ARQ protocol over the §1 drop-and-resend
// acknowledgment model, with per-link corruption tracking.
//
// The paper's switches stream raw bits over stage-to-stage links and
// board-level output wires with no checking; this layer is what a real
// multichip board adds so receivers detect corruption instead of
// silently consuming garbage (cf. Tiny Tera's CRC-protected cells with
// per-link retransmission):
//
//	sender                    switch                     receiver
//	  │ frame = [seq|payload|crc]                            │
//	  ├──────────── setup + stream ───────▶ (wire corruption)│
//	  │                                        CRC check ────┤
//	  │ ◀─────────── ack / nack (AckDelay rounds) ───────────┤
//	  │ retransmit on nack/timeout, backoff 1→16 rounds;     │
//	  │ give up after MaxRetransmits                         │
//
// Each input wire is one ARQ sender: it may offer one frame per round
// (the switch's setup constraint) but keeps up to Window frames
// unacknowledged, so a sender with a deep queue streams continuously
// instead of stop-and-waiting through every AckDelay round trip.
// Receivers suppress duplicate sequence numbers (a late ack can cross
// a timeout retransmit) and re-acknowledge them so the sender's window
// still slides.
//
// The receiver side feeds a link.LinkMonitor: every reception is an
// observation against the physical output wire it arrived on (and the
// input-side link it left from, which the receiver knows from the
// round's setup). A link whose EWMA corruption rate stays over
// threshold is escalated — input-side links are quarantined locally
// (arrivals refused, pending frames abandoned), output-side links are
// handed to the configured LinkEscalator, which the health plane
// implements as BIST-scan + output-wire quarantine under a recomputed
// degraded contract.
package switchsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"concentrators/internal/core"
	"concentrators/internal/link"
	"concentrators/internal/timing"
)

// LinkEscalation is an escalator's verdict on one suspect link.
type LinkEscalation struct {
	// Serving is the replacement serving contract (nil keeps the
	// current one — the link could not be quarantined).
	Serving core.Concentrator
	// OutputWire maps the new contract's output index to the physical
	// board wire it drives (nil means identity).
	OutputWire func(o int) (int, error)
	// ScanRoutes is the BIST cost spent confirming the fabric, in
	// Route-equivalent operations.
	ScanRoutes int
}

// LinkEscalator hands a persistently-corrupting output link to a
// higher layer (internal/health provides the BIST-scan → quarantine
// implementation). Returning a nil escalation or a nil Serving keeps
// the current contract; the link is not re-escalated either way.
type LinkEscalator func(at link.LinkAddr) (*LinkEscalation, error)

// IntegrityConfig switches a Resend session onto the wire-integrity
// data plane: framed payloads, sliding-window ARQ, link monitoring.
type IntegrityConfig struct {
	// CRC selects the frame checksum (CRCNone measures the undetected-
	// corruption baseline).
	CRC link.CRC
	// Window is the per-input sliding window: the number of frames a
	// sender may have unacknowledged. 0 means 1 (stop-and-wait); the
	// maximum is link.SeqSpace/2 so received sequence numbers stay
	// unambiguous.
	Window int
	// MaxRetransmits is the per-frame retransmit budget; a frame
	// needing more is abandoned (Dropped or CorruptedDropped). 0 means
	// the default (8). A retransmit waits 1 round after the first
	// failed send, doubling with every attempt up to 16.
	MaxRetransmits int
	// Corruption is the wire fault plane (nil = clean wires).
	Corruption *link.CorruptionPlane
	// Timing is the gray-failure fault plane (nil = full speed): extra
	// virtual rounds of delay on a frame's path postpone its arrival
	// and its ack, so a slow chip shows up as RTO expiries and
	// duplicate deliveries, not errors.
	Timing *timing.Plane
	// AdaptiveRTO replaces the fixed retransmit backoff base with a
	// per-sender Jacobson/Karn RTT estimator: the RTO tracks
	// SRTT + 4·RTTVAR, doubles on timeout (Karn's algorithm), and
	// ignores RTT samples from retransmitted frames (Karn's rule).
	AdaptiveRTO bool
	// Monitor tunes the per-link EWMA corruption tracker.
	Monitor link.MonitorConfig
	// Escalate hands suspect output links to the health plane; nil
	// leaves persistently-corrupting links in service (their frames
	// keep burning retransmit budget).
	Escalate LinkEscalator
}

// withDefaults returns the effective configuration.
func (c IntegrityConfig) withDefaults() IntegrityConfig {
	if c.Window == 0 {
		c.Window = 1
	}
	if c.MaxRetransmits == 0 {
		c.MaxRetransmits = 8
	}
	return c
}

// Validate rejects malformed integrity configurations.
func (c IntegrityConfig) Validate() error {
	switch {
	case !c.CRC.Valid():
		return fmt.Errorf("switchsim: unknown CRC selector %v", c.CRC)
	case c.Window < 0 || c.Window > link.SeqSpace/2:
		return fmt.Errorf("switchsim: ARQ window %d outside [1,%d]", c.Window, link.SeqSpace/2)
	case c.MaxRetransmits < 0:
		return fmt.Errorf("switchsim: negative retransmit budget %d", c.MaxRetransmits)
	}
	return c.Monitor.Validate()
}

// IntegrityStats is the wire-integrity observability of one session.
type IntegrityStats struct {
	CRC    link.CRC
	Window int
	// FramesSent counts frames offered to the switch (first sends plus
	// Retransmits).
	FramesSent, Retransmits int
	// CorruptedDetected counts receptions whose CRC failed; Erasures
	// counts frames destroyed outright on the wire. Both recover via
	// ARQ (nack and timeout respectively).
	CorruptedDetected, Erasures int
	// CorruptedDelivered counts deliveries whose payload was corrupted
	// yet passed the checksum — always possible with CRCNone, and with
	// a real CRC only beyond its guaranteed Hamming distance.
	CorruptedDelivered int
	// DuplicatesSuppressed counts re-deliveries the receiver discarded
	// by sequence number (and re-acknowledged).
	DuplicatesSuppressed int
	// CongestionDrops counts switch-congestion losses (later retried).
	CongestionDrops int
	// Timeouts counts retransmissions triggered by RTO expiry rather
	// than an explicit nack.
	Timeouts int
	// AdaptiveRTO reports whether the Jacobson/Karn estimator drove the
	// retransmit timers; RTTSamples counts the clean RTT samples it
	// absorbed and KarnRejected the retransmitted-frame samples Karn's
	// rule discarded. FinalRTO is the largest per-sender RTO at session
	// end.
	AdaptiveRTO  bool
	RTTSamples   int
	KarnRejected int
	FinalRTO     int
	// StallRounds is the total extra virtual rounds of delay the timing
	// fault plane injected into delivered and acked frames.
	StallRounds int
	// FinalBacklog counts frames still queued or awaiting delivery
	// when the session ended: the session conservation law is
	// Offered = Delivered + Dropped + CorruptedDropped +
	// DeadlineMissed + FinalBacklog.
	FinalBacklog int
	// LinksQuarantined counts links escalated out of service (input-
	// side quarantines plus health-plane output quarantines);
	// ScanRoutes is the BIST cost those escalations spent.
	LinksQuarantined, ScanRoutes int
	// InputsQuarantined lists input wires taken out of service.
	InputsQuarantined []int
	// LiveOutputs and LiveThreshold describe the serving contract at
	// session end (m′ and ⌊α′m′⌋ of the possibly-degraded switch).
	LiveOutputs, LiveThreshold int
	// Links is the final per-link health map.
	Links map[link.LinkAddr]link.LinkHealth
}

// arqFrame is one message in the ARQ machinery.
type arqFrame struct {
	seq        int
	payload    []byte // original payload bits
	firstRound int
	attempts   int // send attempts so far
	lastSent   int // round of the latest send
	eligible   int // next round this frame may be (re)sent; −1 = awaiting ack/nack/timeout
	deadline   int // RTO round (meaningful while awaiting)
	// ackAt is the round the receiver's verdict on the latest send, ack,
	// reaches the sender; −1 while none is in flight (an erasure sends
	// none). The next send clears it, so a verdict on an earlier send
	// never acts.
	ackAt     int
	ack       ackKind
	corrupted bool // a nack or an erasure timeout hit this frame
	delivered bool // receiver accepted a copy (counted once)
}

// arqSender is the per-input-wire sender state.
type arqSender struct {
	nextSeq     int
	queue       []*arqFrame // arrivals not yet admitted to the window
	window      []*arqFrame // sent at least once, not yet acked
	quarantined bool
}

// backlog counts the sender's messages neither delivered nor
// abandoned: its queue and its window's undelivered frames.
func (s *arqSender) backlog() int {
	n := len(s.queue)
	for _, f := range s.window {
		if !f.delivered {
			n++
		}
	}
	return n
}

// ackKind labels receiver→sender control events.
type ackKind int

const (
	ackOK         ackKind = iota // frame accepted (or duplicate re-ack)
	nackCorrupted                // CRC failure, please retransmit
	nackDropped                  // switch congestion drop
)

// arqBackoff is the retransmit backoff in rounds after a frame's
// (attempt+1)-th send failed: 1, doubling per attempt up to 16.
func arqBackoff(attempt int) int { return 1 << min(attempt, 4) }

// runIntegritySession is RunSession's engine when cfg.Integrity is
// set. cfg is already validated.
func runIntegritySession(sw core.Concentrator, cfg SessionConfig) (*SessionStats, error) {
	ic := cfg.Integrity.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	monitor := link.NewLinkMonitor(ic.Monitor)
	n := sw.Inputs()
	stats := newSessionStats(cfg)
	ist := &IntegrityStats{CRC: ic.CRC, Window: ic.Window}
	stats.Integrity = ist

	// stageCount is the number of chip stages for link addressing:
	// frames cross stage-to-stage links 0..stageCount, the last being
	// the board-level output wires.
	stageCount := 1
	fi, faultInjectable := sw.(core.FaultInjectable)
	if faultInjectable {
		stageCount = len(fi.StageChips())
	}
	outLinkStage := stageCount

	// runner streams every round through the serving contract,
	// runner.Switch(); an escalation that replaces the contract builds
	// the runner anew on it.
	runner := NewRunner(sw)
	outputWire := func(o int) (int, error) { return o, nil }

	senders := make([]*arqSender, n)
	for i := range senders {
		senders[i] = &arqSender{}
	}
	// ests are the per-sender Jacobson/Karn RTT estimators (adaptive
	// RTO only): each input wire sees its own path delays, so each
	// keeps its own SRTT/RTTVAR.
	var ests []timing.Estimator
	if ic.AdaptiveRTO {
		ist.AdaptiveRTO = true
		ests = make([]timing.Estimator, n)
	}
	// seen[in] is the receiver's duplicate-suppression window.
	type seenSet struct {
		set  map[int]bool
		fifo []int
	}
	seen := make([]seenSet, n)
	for i := range seen {
		seen[i] = seenSet{set: make(map[int]bool)}
	}
	// partner[a] is the one link that every corrupt reception on link a
	// crossed as well, or many once there were two. A corrupt frame is
	// ambiguous — the input-side link and the output wire are both
	// candidates — so conviction needs coincidence analysis: a link
	// whose corruption spans several distinct partners is guilty; one
	// whose corruption always coincides with a single partner is
	// deferred (and exonerated once that partner is quarantined).
	// Without this, one bad output wire convicts every input the
	// concentrator keeps pairing with it.
	many := link.LinkAddr{Stage: -1, Wire: -1}
	partner := make(map[link.LinkAddr]link.LinkAddr)
	recordCorrupt := func(a, b link.LinkAddr) {
		for _, pair := range [2][2]link.LinkAddr{{a, b}, {b, a}} {
			if p, ok := partner[pair[0]]; !ok {
				partner[pair[0]] = pair[1]
			} else if p != pair[1] {
				partner[pair[0]] = many
			}
		}
	}
	// rate is the link's cumulative corruption fraction.
	rate := func(h link.LinkHealth) float64 {
		if h.Frames == 0 {
			return 0
		}
		return float64(h.Corrupted) / float64(h.Frames)
	}
	// retry schedules the frame's next send, or abandons it once its
	// budget is spent; it reports whether the frame stays in the window.
	retry := func(f *arqFrame, round int) bool {
		if f.attempts <= ic.MaxRetransmits {
			f.eligible = round + arqBackoff(f.attempts-1)
			return true
		}
		switch {
		case f.delivered: // already counted Delivered; the ack just never landed
		case f.corrupted:
			stats.CorruptedDropped++
		default:
			stats.Dropped++
		}
		return false
	}

	// inFlight[in] is the frame input in sent this round; an input that
	// sent nothing keeps a stale entry, which no delivery reads. msgs
	// and bits are the round's offers and a received frame's bits.
	inFlight := make([]*arqFrame, n)
	var msgs []Message
	var bits []byte
	backlog := 0
	for round := 0; round < cfg.Rounds; round++ {
		// 1–4 run in one pass per input wire. Before the route, inputs
		// share only counters and rng, and only arrivals draw from rng,
		// in input order. Within an input, verdicts land in window
		// order, which is send order for every frame never
		// retransmitted: the only frames whose RTT the estimator keeps.
		load := cfg.Surge.Load(round, cfg.Load)
		msgs = msgs[:0]
		for in, s := range senders {
			var pick *arqFrame
			timeouts := 0
			window := s.window[:0]
			for _, f := range s.window {
				keep := true
				switch {
				case f.ackAt == round:
					// 1. The verdict on f's latest send lands: an ack
					// slides the window; a nack schedules a retransmit
					// unless a timeout already did.
					switch {
					case f.ack == ackOK:
						if ic.AdaptiveRTO {
							// Karn's rule: a retransmitted frame's ack is
							// ambiguous (it may answer any attempt), so its
							// RTT never feeds the estimator.
							ests[in].Sample(round-f.lastSent, f.attempts > 1)
						}
						if !f.delivered {
							// The receiver acked but never consumed the
							// frame: its corrupted sequence number collided
							// with an already-seen one (possible only when
							// the CRC missed the corruption), so it was
							// discarded as a duplicate. The message is lost
							// to corruption.
							stats.CorruptedDropped++
						}
						keep = false
					case f.eligible < 0:
						if f.ack == nackCorrupted {
							f.corrupted = true
						}
						keep = retry(f, round)
					}
				case f.eligible < 0 && round >= f.deadline:
					// 2. RTO expiry: silence past the deadline means the
					// frame (or its ack) vanished — an erasure.
					f.corrupted = true
					timeouts++
					keep = retry(f, round)
				}
				if !keep {
					continue
				}
				// A frame rescheduled this round is not due before the
				// next, so this is the oldest retransmit due.
				if pick == nil && f.eligible >= 0 && f.eligible <= round {
					pick = f
				}
				window = append(window, f)
			}
			s.window = window
			ist.Timeouts += timeouts
			if ic.AdaptiveRTO {
				// Karn's algorithm: each timeout doubles the timer, and
				// only a clean sample resets it; the input's samples
				// landed first.
				for range timeouts {
					ests[in].Backoff()
				}
			}

			// 3. An arrival joins the queue, at the surge plane's
			// multiplied load. A quarantined input refuses it: its wire
			// is out of service, and its queue and window stay empty.
			if rng.Float64() < load {
				if s.quarantined {
					stats.Refused++
				} else {
					payload := make([]byte, cfg.PayloadBits)
					for b := range payload {
						// rng.Intn(2)'s exact value: bit 32 of one Int63 draw.
						payload[b] = byte(rng.Int63()>>32) & 1
					}
					s.queue = append(s.queue, &arqFrame{payload: payload, firstRound: round, eligible: -1})
					stats.Offered++
				}
			}

			// 4. The sender offers one frame: the oldest retransmit due,
			// else a new frame if the window has room.
			if pick == nil && len(s.window) < ic.Window && len(s.queue) > 0 {
				pick = s.queue[0]
				s.queue = s.queue[1:]
				pick.seq = s.nextSeq
				s.nextSeq = (s.nextSeq + 1) % link.SeqSpace
				s.window = append(s.window, pick)
			}
			if pick == nil {
				continue
			}
			pick.attempts++
			if pick.attempts > 1 {
				stats.Retries++
				ist.Retransmits++
			}
			pick.lastSent = round
			pick.eligible = -1
			pick.ackAt = -1
			pick.deadline = round + 1 + cfg.AckDelay + arqBackoff(pick.attempts-1)
			if ic.AdaptiveRTO {
				e := ests[in]
				if e.Primed() {
					// The estimator's RTO replaces the fixed formula,
					// floored at the physical round trip so a fast
					// estimate can never fire before an ack could land.
					pick.deadline = round + max(e.RTO(), 1+cfg.AckDelay)
				} else {
					// Unprimed, the Karn backoff still applies across
					// frames: a straggler path that times out every
					// first attempt keeps doubling the timer until one
					// first attempt survives to deliver the clean sample
					// that primes the estimator.
					pick.deadline = round + max(e.RTO(), 1+cfg.AckDelay+arqBackoff(pick.attempts-1))
				}
			}
			ist.FramesSent++
			inFlight[in] = pick
			msgs = append(msgs, Message{Input: in, Payload: link.EncodeFrame(ic.CRC, pick.seq, pick.payload)})
		}
		if len(msgs) > stats.MaxOffered {
			stats.MaxOffered = len(msgs)
		}

		if len(msgs) > 0 {
			res, err := runner.Run(msgs)
			if err != nil {
				return nil, err
			}

			// 5. Congestion drops: the ack protocol reports them after
			// the round trip, exactly the Resend model.
			for _, in := range res.DroppedInputs {
				ist.CongestionDrops++
				f := inFlight[in]
				f.ackAt, f.ack = round+1+cfg.AckDelay, nackDropped
			}

			// 6. Deliveries cross the wire fault plane, then the
			// receiver CRC-checks, dedups, and acks or nacks.
			for _, d := range res.Delivered {
				f := inFlight[d.Input]
				phys, err := outputWire(d.Output)
				if err != nil {
					return nil, err
				}
				bits = append(bits[:0], d.Payload...)
				erased := ic.Corruption.Cross(round, stageCount, d.Input, phys, bits)
				outLink := link.LinkAddr{Stage: outLinkStage, Wire: phys}
				inLink := link.LinkAddr{Stage: 0, Wire: d.Input}
				if erased {
					// Nothing arrives: the receiver (which knows from
					// setup that this wire carried a path) charges the
					// link; the sender recovers by RTO.
					ist.Erasures++
					monitor.Observe(outLink, true)
					monitor.Observe(inLink, true)
					recordCorrupt(inLink, outLink)
					continue
				}
				seq, payload, ok, derr := link.DecodeFrame(ic.CRC, bits)
				corrupted := derr != nil || !ok
				monitor.Observe(outLink, corrupted)
				monitor.Observe(inLink, corrupted)
				if corrupted {
					recordCorrupt(inLink, outLink)
				}
				// A gray chip on the path stalls the frame (and so its
				// ack or nack) by tdelay virtual rounds: the sender sees
				// a longer RTT, possibly past its RTO — creating the
				// spurious retransmits the adaptive estimator absorbs.
				tdelay := ic.Timing.PathDelay(round, stageCount, d.Input, phys)
				ist.StallRounds += tdelay
				f.ackAt = round + 1 + cfg.AckDelay + tdelay
				if corrupted {
					ist.CorruptedDetected++
					f.ack = nackCorrupted
					continue
				}
				f.ack = ackOK
				rs := &seen[d.Input]
				if rs.set[seq] {
					ist.DuplicatesSuppressed++
					continue
				}
				rs.set[seq] = true
				rs.fifo = append(rs.fifo, seq)
				if len(rs.fifo) > link.SeqSpace/2 {
					delete(rs.set, rs.fifo[0])
					rs.fifo = rs.fifo[1:]
				}
				if !bytes.Equal(payload, f.payload) {
					ist.CorruptedDelivered++
				}
				if f.delivered {
					// A copy whose sequence number a missed corruption
					// rewrote was already accepted: the message is
					// booked once.
					continue
				}
				f.delivered = true
				stats.DeliveredPerRound[round]++
				stats.bookDelivery(round+tdelay-f.firstRound, f.attempts > 1, cfg.Deadline)
			}
		}

		// 7. Escalation: links whose EWMA corruption rate crossed the
		// threshold leave service. Input-side links are quarantined
		// locally; output-side links go to the health plane. A suspect
		// whose corruption always coincided with one partner link is
		// deferred — and given a fresh trial once that partner is
		// quarantined, since its evidence died with the culprit.
		for _, at := range monitor.Suspects() {
			if p, ok := partner[at]; ok && p != many {
				// All of at's corruption coincided with one partner.
				// If that partner has since been quarantined, the
				// evidence died with it: fresh trial. Otherwise convict
				// at only when the partner demonstrably carries clean
				// traffic from elsewhere AND corrupts at a strictly
				// lower rate — e.g. a statically-paired (input i,
				// output i) revsort pair, where the clean frames other
				// inputs push through output i are what pin the blame
				// on input i. A pure pair with no clean evidence on
				// either side stays ambiguous: the receiver defers
				// rather than quarantining on a coin flip (the ARQ
				// budget contains the damage meanwhile).
				ah, ph := monitor.Health(at), monitor.Health(p)
				if ph.Escalated {
					monitor.Reset(at)
					delete(partner, at)
					continue
				}
				if ph.Frames-ph.Corrupted == 0 || rate(ah) <= rate(ph) {
					continue
				}
			}
			switch at.Stage {
			case 0:
				s := senders[at.Wire]
				s.quarantined = true
				monitor.Escalate(at)
				ist.LinksQuarantined++
				ist.InputsQuarantined = append(ist.InputsQuarantined, at.Wire)
				// Its pending messages are abandoned to corruption.
				stats.CorruptedDropped += s.backlog()
				s.window, s.queue = nil, nil
			case outLinkStage:
				if ic.Escalate == nil {
					continue // left in service by configuration
				}
				esc, err := ic.Escalate(at)
				if err != nil {
					return nil, fmt.Errorf("switchsim: escalating %v: %w", at, err)
				}
				monitor.Escalate(at)
				if esc == nil || esc.Serving == nil {
					continue
				}
				ist.ScanRoutes += esc.ScanRoutes
				ist.LinksQuarantined++
				runner = NewRunner(esc.Serving)
				if esc.OutputWire != nil {
					outputWire = esc.OutputWire
				} else {
					outputWire = func(o int) (int, error) { return o, nil }
				}
			default:
				monitor.Escalate(at) // interior link: observable, not maskable
			}
		}

		backlog = 0
		for _, s := range senders {
			backlog += s.backlog()
		}
		if backlog > stats.MaxBacklog {
			stats.MaxBacklog = backlog
		}
	}

	ist.FinalBacklog = backlog
	stats.FinalBacklog = backlog
	for _, e := range ests {
		ist.RTTSamples += e.Samples()
		ist.KarnRejected += e.Rejected()
		if r := e.RTO(); r > ist.FinalRTO {
			ist.FinalRTO = r
		}
	}
	sort.Ints(ist.InputsQuarantined)
	ist.LiveOutputs = runner.Switch().Outputs()
	ist.LiveThreshold = core.Threshold(runner.Switch())
	ist.Links = monitor.Snapshot()
	return stats, nil
}

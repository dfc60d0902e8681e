// Package switchsim simulates bit-serial message routing through the
// concentrator switches, following the message format of §2 of the
// paper: during the setup cycle each input wire presents a valid bit;
// the valid bits establish electrical paths inside the (combinational)
// switch; message bits arriving on subsequent cycles follow those
// paths, one bit per clock cycle.
//
// The simulator makes the paper's guarantees observable end to end: it
// streams real payloads, records which messages were delivered or
// dropped under congestion, and exposes per-cycle output wire states.
package switchsim

import (
	"fmt"
	"math"
	"math/bits"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
	"concentrators/internal/nearsort"
	"concentrators/internal/seedrand"
)

// Message is a bit-serial message presented at an input wire.
type Message struct {
	// Input is the input wire index.
	Input int
	// Payload is the bit stream following the valid bit (values 0/1).
	Payload []byte
}

// NewMessage builds a message whose payload encodes the given bytes
// MSB-first, 8 bits per byte.
func NewMessage(input int, data []byte) Message {
	payload := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for bit := 7; bit >= 0; bit-- {
			payload = append(payload, (b>>uint(bit))&1)
		}
	}
	return Message{Input: input, Payload: payload}
}

// DecodePayload reassembles bytes from an MSB-first bit stream,
// ignoring a trailing partial byte.
func DecodePayload(bits []byte) []byte {
	out := make([]byte, 0, len(bits)/8)
	for i := 0; i+8 <= len(bits); i += 8 {
		var b byte
		for j := 0; j < 8; j++ {
			b = b<<1 | (bits[i+j] & 1)
		}
		out = append(out, b)
	}
	return out
}

// Delivery records one delivered message.
type Delivery struct {
	Input   int
	Output  int
	Payload []byte
}

// Result is the outcome of one setup-and-stream simulation.
type Result struct {
	// Delivered lists successfully routed messages, in the order of
	// the messages Run was given.
	Delivered []Delivery
	// DroppedInputs lists input wires whose messages found no output
	// (switch congestion: k exceeded the switch's capability).
	DroppedInputs []int
	// Cycles is the total clock count: 1 setup cycle plus the longest
	// payload.
	Cycles int
	// Valid is the valid-bit pattern presented at setup.
	Valid *bitvec.Vector
	// Routing is the raw out mapping from the switch's setup.
	Routing []int
}

// Run simulates the given messages through the switch: one setup cycle
// establishes paths, then payload bits stream along them. Messages may
// have different lengths; shorter streams idle at 0 after their last
// bit, exactly as a real wire would. It is one round of a fresh Runner,
// so the caller owns everything the Result references.
func Run(sw core.Concentrator, msgs []Message) (*Result, error) {
	return NewRunner(sw).Run(msgs)
}

// CheckGuarantee verifies the §1 partial-concentrator delivery
// guarantee on a Result obtained from the given switch: with k entering
// messages it must deliver min(k, m−ε) of them, with disjoint output
// paths and intact payloads. It pairs deliveries with messages by
// walking both lists, so res must keep the order of msgs, as Run's
// result does; a delivery that matches no message in that order fails.
func CheckGuarantee(sw core.Concentrator, msgs []Message, res *Result) error {
	if err := nearsort.CheckPartialConcentration(res.Valid, res.Routing, sw.Outputs(), sw.EpsilonBound()); err != nil {
		return err
	}
	next := 0
	for _, d := range res.Delivered {
		for next < len(msgs) && msgs[next].Input != d.Input {
			next++
		}
		if next == len(msgs) {
			return fmt.Errorf("switchsim: delivery from input %d matches no sent message", d.Input)
		}
		want := msgs[next].Payload
		next++
		if len(d.Payload) != len(want) {
			return fmt.Errorf("switchsim: message from input %d delivered %d bits, sent %d",
				d.Input, len(d.Payload), len(want))
		}
		if c := firstCorruptBit(d.Payload, want); c >= 0 {
			return fmt.Errorf("switchsim: message from input %d corrupted at cycle %d", d.Input, c)
		}
	}
	if len(res.Delivered)+len(res.DroppedInputs) != len(msgs) {
		return fmt.Errorf("switchsim: %d delivered + %d dropped != %d sent",
			len(res.Delivered), len(res.DroppedInputs), len(msgs))
	}
	return nil
}

// RandomMessages generates one message per input with independent
// probability load, each with a payloadBits-bit random payload, in
// ascending input order, or nil if no input drew one; n ≤ 0 draws
// nothing. Its draws are those of rand.New(rand.NewSource(seed)) for
// the stream's seed: per input a Float64 below load, then rng.Intn(2)
// per payload bit (see seedrand.Stream.Traffic). The payloads share
// one buffer, each capped at its own length, so appending to one
// reallocates instead of overwriting its neighbour.
func RandomMessages(s *seedrand.Stream, n int, load float64, payloadBits int) []Message {
	if n <= 0 {
		return nil
	}
	// Room for the expected count plus three standard deviations: a
	// batch rarely outgrows it, and the draw grows it if one does.
	hint := 0
	if load > 0 {
		p := min(load, 1)
		mean := float64(n) * p
		hint = min(n, int(mean+3*math.Sqrt(mean*(1-p)))+1)
	}
	var small [64]uint64
	sent := small[:]
	if words := (n + 63) / 64; words > len(small) {
		sent = make([]uint64, words)
	}
	buf, k := s.Traffic(sent, make([]byte, 0, hint*payloadBits), n, load, payloadBits)
	if k == 0 {
		return nil
	}
	msgs := make([]Message, 0, k)
	for w, word := range sent {
		for ; word != 0; word &= word - 1 {
			off := len(msgs) * payloadBits
			msgs = append(msgs, Message{
				Input:   w*64 + bits.TrailingZeros64(word),
				Payload: buf[off : off+payloadBits : off+payloadBits],
			})
		}
	}
	return msgs
}

// Pipeline chains concentrator switches: stage i's output wire o feeds
// stage i+1's input wire o. This is how a routing network composes
// concentrators (§1: "the switches that route these messages").
type Pipeline struct {
	stages []core.Concentrator
}

// NewPipeline validates that adjacent stages have compatible widths
// (stage i's Outputs ≥ ... precisely, stage i+1 must have at least as
// many inputs as stage i has outputs; extra inputs idle).
func NewPipeline(stages ...core.Concentrator) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("switchsim: empty pipeline")
	}
	for i := 0; i+1 < len(stages); i++ {
		if stages[i+1].Inputs() < stages[i].Outputs() {
			return nil, fmt.Errorf("switchsim: stage %d has %d outputs but stage %d only %d inputs",
				i, stages[i].Outputs(), i+1, stages[i+1].Inputs())
		}
	}
	return &Pipeline{stages: append([]core.Concentrator(nil), stages...)}, nil
}

// Stages returns the number of stages.
func (p *Pipeline) Stages() int { return len(p.stages) }

// Inputs returns the first stage's input count.
func (p *Pipeline) Inputs() int { return p.stages[0].Inputs() }

// Outputs returns the last stage's output count.
func (p *Pipeline) Outputs() int { return p.stages[len(p.stages)-1].Outputs() }

// GateDelays sums the stage delays.
func (p *Pipeline) GateDelays() int {
	d := 0
	for _, s := range p.stages {
		d += s.GateDelays()
	}
	return d
}

// PipelineResult describes an end-to-end pipeline run.
type PipelineResult struct {
	// Delivered maps original input wire → final output wire.
	Delivered map[int]int
	// DroppedAtStage[i] lists original inputs dropped at stage i.
	DroppedAtStage [][]int
	// PerStage holds each stage's Result.
	PerStage []*Result
}

// Run streams messages through every stage. Message identity is
// tracked across stages by payload position; a message dropped at any
// stage is recorded against that stage.
func (p *Pipeline) Run(msgs []Message) (*PipelineResult, error) {
	pr := &PipelineResult{
		Delivered:      make(map[int]int),
		DroppedAtStage: make([][]int, len(p.stages)),
	}
	// origin[input wire of current stage] = original input index
	origin := make(map[int]int, len(msgs))
	cur := make([]Message, len(msgs))
	copy(cur, msgs)
	for i := range cur {
		origin[cur[i].Input] = cur[i].Input
	}
	for si, sw := range p.stages {
		res, err := Run(sw, cur)
		if err != nil {
			return nil, fmt.Errorf("switchsim: stage %d: %w", si, err)
		}
		pr.PerStage = append(pr.PerStage, res)
		for _, in := range res.DroppedInputs {
			pr.DroppedAtStage[si] = append(pr.DroppedAtStage[si], origin[in])
		}
		nextOrigin := make(map[int]int, len(res.Delivered))
		var next []Message
		for _, d := range res.Delivered {
			nextOrigin[d.Output] = origin[d.Input]
			next = append(next, Message{Input: d.Output, Payload: d.Payload})
		}
		origin = nextOrigin
		cur = next
	}
	for out, orig := range origin {
		pr.Delivered[orig] = out
	}
	return pr, nil
}

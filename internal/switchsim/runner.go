package switchsim

import (
	"encoding/binary"
	"fmt"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
)

// Runner simulates repeated setup-and-stream rounds through one switch
// with every buffer reused across rounds. After a warm-up round on a
// switch implementing core.RouterInto, a steady-state Run performs zero
// heap allocations, making it the session-serving hot path.
//
// The Result returned by Run — and everything it references (routing,
// delivered payload slices, valid vector) — is owned by the Runner and
// is overwritten by the next Run call. Callers that need the data
// across rounds must copy it out. Every delivered payload is capped at
// its own length, so appending to one reallocates instead of
// overwriting its neighbour.
//
// A Runner is not safe for concurrent use; give each goroutine its own.
type Runner struct {
	sw core.Concentrator
	ri core.RouterInto // non-nil when sw supports in-place routing

	valid   *bitvec.Vector
	routing []int // RouteInto destination; unused without ri

	res Result
	// arena holds output o's payload bits at o·maxLen. A round writes
	// each delivered payload over its slot and never clears the rest:
	// nothing reads a slot past the payloads delivered on it.
	arena []byte
}

// NewRunner builds a Runner for the given switch.
func NewRunner(sw core.Concentrator) *Runner {
	r := &Runner{
		sw:    sw,
		valid: bitvec.New(sw.Inputs()),
	}
	if r.ri, _ = sw.(core.RouterInto); r.ri != nil {
		r.routing = make([]int, sw.Inputs())
	}
	return r
}

// Switch returns the underlying concentrator.
func (r *Runner) Switch() core.Concentrator { return r.sw }

// Run simulates one round: a setup cycle establishes paths, then
// payload bits stream along them. Semantics are identical to the
// package-level Run; only buffer ownership differs (see type comment).
func (r *Runner) Run(msgs []Message) (*Result, error) {
	n, m := r.sw.Inputs(), r.sw.Outputs()
	r.valid.Reset()
	words := r.valid.Words() // in range-checked below, so bits ≥ n stay zero
	maxLen := 0
	for i := range msgs {
		in := msgs[i].Input
		if in < 0 || in >= n {
			return nil, fmt.Errorf("switchsim: message input %d out of range [0,%d)", in, n)
		}
		bit := uint64(1) << uint(in&63)
		if words[in>>6]&bit != 0 {
			return nil, fmt.Errorf("switchsim: two messages on input %d", in)
		}
		words[in>>6] |= bit
		maxLen = max(maxLen, len(msgs[i].Payload))
	}

	routing := r.routing
	if r.ri != nil {
		if err := r.ri.RouteInto(routing, r.valid); err != nil {
			return nil, err
		}
	} else {
		var err error
		if routing, err = r.sw.Route(r.valid); err != nil {
			return nil, err
		}
	}

	// Allocated even when it needs no room: payload-free rounds still
	// report empty, not nil, payloads.
	if need := m * maxLen; r.arena == nil || cap(r.arena) < need {
		r.arena = make([]byte, need)
	}

	// Sized once for every message: a fresh Runner (one per package-level
	// Run) would otherwise grow it append by append.
	if cap(r.res.Delivered) < len(msgs) {
		r.res.Delivered = make([]Delivery, 0, len(msgs))
	}
	r.res.Delivered = r.res.Delivered[:0]
	r.res.DroppedInputs = r.res.DroppedInputs[:0]
	r.res.Cycles = 1 + maxLen
	r.res.Valid = r.valid
	r.res.Routing = routing

	for i := range msgs {
		msg := &msgs[i]
		o := routing[msg.Input]
		if o < 0 {
			r.res.DroppedInputs = append(r.res.DroppedInputs, msg.Input)
			continue
		}
		// Two messages a faulted switch puts on one wire share its slot,
		// as they share the wire's bits.
		at, k := o*maxLen, len(msg.Payload)
		payload := r.arena[at : at+k : at+k]
		streamBits(payload, msg.Payload)
		r.res.Delivered = append(r.res.Delivered, Delivery{
			Input:   msg.Input,
			Output:  o,
			Payload: payload,
		})
	}
	return &r.res, nil
}

// lowBits selects bit 0 of each byte of a little-endian word: a payload
// word masked with it holds the eight bits b&1 that its bytes carry.
const lowBits = 0x0101010101010101

// streamBits writes bit 0 of each byte of src to dst, eight bits per
// step, and the last len(src)%8 bits one at a time. dst must be at
// least as long as src.
func streamBits(dst, src []byte) {
	c := 0
	for ; c+8 <= len(src); c += 8 {
		binary.LittleEndian.PutUint64(dst[c:], binary.LittleEndian.Uint64(src[c:])&lowBits)
	}
	for ; c < len(src); c++ {
		dst[c] = src[c] & 1
	}
}

// firstCorruptBit returns the first cycle c at which got[c] differs
// from bit 0 of sent[c], or -1 if none does; got must be at least as
// long as sent. It compares eight cycles per step and, at the first
// word that differs or in the last len(sent)%8 cycles, one at a time.
func firstCorruptBit(got, sent []byte) int {
	c := 0
	for ; c+8 <= len(sent); c += 8 {
		if binary.LittleEndian.Uint64(got[c:]) != binary.LittleEndian.Uint64(sent[c:])&lowBits {
			break
		}
	}
	for ; c < len(sent); c++ {
		if got[c] != sent[c]&1 {
			return c
		}
	}
	return -1
}

package switchsim

import (
	"fmt"
	"io"
)

// WriteWaveform renders the bit streams on the output wires of a
// switch with the given number of outputs as ASCII waveforms, one row
// per output wire, logic-analyzer style:
//
//	out  0  1_11__11 <- input 5
//	out  1  ________ (idle)
//
// '1' is a 1, '_' is a 0; idle wires (no established path) are marked.
// A wire carries the bits of the payload delivered on it and idles at
// 0 after its last bit; where two messages share a wire, the longer
// payload holds the bits of both. maxCycles truncates long payloads
// (0 = all).
func (r *Result) WriteWaveform(w io.Writer, outputs, maxCycles int) error {
	cycles := max(r.Cycles-1, 0)
	truncated := ""
	if maxCycles > 0 && cycles > maxCycles {
		cycles, truncated = maxCycles, ", truncated"
	}
	routedTo := make([]int, outputs)
	for i := range routedTo {
		routedTo[i] = -1
	}
	for in, o := range r.Routing {
		if o >= 0 {
			routedTo[o] = in
		}
	}
	wire := make([][]byte, outputs)
	for _, d := range r.Delivered {
		if len(d.Payload) > len(wire[d.Output]) {
			wire[d.Output] = d.Payload
		}
	}
	if _, err := fmt.Fprintf(w, "setup: valid=%s  (then %d payload cycles%s)\n",
		r.Valid, cycles, truncated); err != nil {
		return err
	}
	line := make([]byte, cycles)
	for o, bits := range wire {
		for c := range line {
			line[c] = '_'
			if c < len(bits) && bits[c] != 0 {
				line[c] = '1'
			}
		}
		tag := "(idle)"
		if routedTo[o] >= 0 {
			tag = fmt.Sprintf("<- input %d", routedTo[o])
		}
		if _, err := fmt.Fprintf(w, "out %3d  %s %s\n", o, line, tag); err != nil {
			return err
		}
	}
	return nil
}

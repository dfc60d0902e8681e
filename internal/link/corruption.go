package link

import (
	"fmt"
	"slices"

	"concentrators/internal/seedrand"
	"concentrators/internal/window"
)

// WireFaultMode selects the failure mode of one wire-level fault.
type WireFaultMode int

// The modelled wire failure modes.
const (
	// WireBitFlip flips each bit crossing the link independently with
	// probability BER (a noisy/marginal link).
	WireBitFlip WireFaultMode = iota
	// WireBurst flips BurstLen consecutive bits of a frame, once every
	// BurstEvery rounds (crosstalk, supply droop, connector chatter).
	WireBurst
	// WireStuck drives every bit crossing the link to StuckValue
	// (a shorted or floating wire).
	WireStuck
	// WireErasure destroys the frame entirely: the receiver sees
	// nothing at all on the wire (lost framing, open connection).
	WireErasure
)

// String names the mode.
func (m WireFaultMode) String() string {
	switch m {
	case WireBitFlip:
		return "bit-flip"
	case WireBurst:
		return "burst"
	case WireStuck:
		return "stuck"
	case WireErasure:
		return "erasure"
	default:
		return fmt.Sprintf("WireFaultMode(%d)", int(m))
	}
}

// AllWires as a WireFault.Wire targets every wire of the fault's stage;
// AllStages as a WireFault.Stage targets every link bundle. Together
// they model ambient board noise rather than a single bad trace.
const (
	AllWires  = -1
	AllStages = -1
)

// LinkAddr addresses one stage-to-stage link of a multichip switch:
// Stage s is the wire bundle leaving chip stage s (stage 0 is the
// switch's input side; the last stage is the board-level output wires).
type LinkAddr struct {
	Stage, Wire int
}

// String renders the address.
func (a LinkAddr) String() string { return fmt.Sprintf("stage %d wire %d", a.Stage, a.Wire) }

// WireFault is one wire-level fault on the corruption plane.
type WireFault struct {
	// Stage is the stage-to-stage link bundle the fault sits on.
	Stage int
	// Wire is the wire index within the bundle, or AllWires.
	Wire int
	// Mode is the failure mode.
	Mode WireFaultMode
	// BER is the per-bit flip probability (WireBitFlip only).
	BER float64
	// BurstLen and BurstEvery shape WireBurst faults: BurstLen
	// consecutive bits flip in rounds where (round−From) is a multiple
	// of BurstEvery (BurstEvery ≤ 1 means every round).
	BurstLen, BurstEvery int
	// StuckValue is the driven value, 0 or 1 (WireStuck only).
	StuckValue byte
	// From and Until bound the rounds the fault is live: active for
	// From ≤ round < Until; Until ≤ 0 means forever.
	From, Until int
}

// String renders the fault.
func (f WireFault) String() string {
	st := fmt.Sprintf("stage %d", f.Stage)
	if f.Stage == AllStages {
		st = "all stages"
	}
	target := fmt.Sprintf("%s wire %d", st, f.Wire)
	if f.Wire == AllWires {
		target = fmt.Sprintf("%s all wires", st)
	}
	window := ""
	if f.Until > 0 {
		window = fmt.Sprintf(" rounds [%d,%d)", f.From, f.Until)
	} else if f.From > 0 {
		window = fmt.Sprintf(" from round %d", f.From)
	}
	switch f.Mode {
	case WireBitFlip:
		return fmt.Sprintf("%s: bit-flip BER %g%s", target, f.BER, window)
	case WireBurst:
		return fmt.Sprintf("%s: burst %d bits every %d rounds%s", target, f.BurstLen, max(f.BurstEvery, 1), window)
	case WireStuck:
		return fmt.Sprintf("%s: stuck-at-%d%s", target, f.StuckValue, window)
	default:
		return fmt.Sprintf("%s: %s%s", target, f.Mode, window)
	}
}

// Validate rejects malformed faults.
func (f WireFault) Validate() error {
	switch {
	case f.Stage < AllStages:
		return fmt.Errorf("link: stage %d in %v (want ≥ 0 or AllStages)", f.Stage, f)
	case f.Wire < AllWires:
		return fmt.Errorf("link: wire %d in %v (want ≥ 0 or AllWires)", f.Wire, f)
	}
	if err := window.Check(f.From, f.Until); err != nil {
		return fmt.Errorf("link: %v in %v", err, f)
	}
	switch f.Mode {
	case WireBitFlip:
		if f.BER != f.BER || f.BER < 0 || f.BER > 1 {
			return fmt.Errorf("link: BER %v outside [0,1] in %v", f.BER, f)
		}
	case WireBurst:
		if f.BurstLen < 1 {
			return fmt.Errorf("link: burst length %d < 1 in %v", f.BurstLen, f)
		}
	case WireStuck:
		if f.StuckValue > 1 {
			return fmt.Errorf("link: stuck value %d not a bit in %v", f.StuckValue, f)
		}
	case WireErasure:
	default:
		return fmt.Errorf("link: unknown wire fault mode in %v", f)
	}
	return nil
}

// active reports whether the fault is live in the given round.
func (f WireFault) active(round int) bool {
	return window.Span{From: f.From, Until: f.Until}.Active(round)
}

// CorruptionPlane is a seeded set of wire-level faults — the data
// plane's counterpart of core.FaultPlane. Corruption is deterministic:
// the bits flipped on a link depend only on the plane's seed and the
// (round, stage, wire) coordinates, never on call order, so a
// corruption-induced failure replays bit-for-bit from its seed.
// Multiple faults may target the same link; their effects compose in
// insertion order. The zero value of *CorruptionPlane (nil) means clean
// wires.
type CorruptionPlane struct {
	window.Plane[WireFault]
}

// NewCorruptionPlane returns an empty plane with the given seed.
func NewCorruptionPlane(seed int64) *CorruptionPlane {
	return &CorruptionPlane{window.NewPlane[WireFault](seed)}
}

// rng derives the deterministic bit-noise stream for one (round, link)
// coordinate.
func (p *CorruptionPlane) rng(round int, at LinkAddr) seedrand.Stream {
	h := seedrand.Mix64(uint64(p.Seed()) ^ seedrand.Mix64(uint64(round)<<32|uint64(uint32(at.Stage))) ^ seedrand.Mix64(uint64(at.Wire)+0x51ED270B))
	return seedrand.NewStream(int64(h))
}

// Corrupt applies every fault live on the given link in the given
// round to a frame's bit stream, in place. It returns the number of
// bits changed and whether the frame was erased outright (erased
// frames carry no bits at all; flipped is then the full frame length).
func (p *CorruptionPlane) Corrupt(round int, at LinkAddr, bits []byte) (flipped int, erased bool) {
	if p == nil || len(bits) == 0 {
		return 0, false
	}
	rng := p.rng(round, at)
	for _, f := range p.Faults() {
		if (f.Stage != AllStages && f.Stage != at.Stage) || (f.Wire != AllWires && f.Wire != at.Wire) || !f.active(round) {
			continue
		}
		switch f.Mode {
		case WireBitFlip:
			flipped += rng.Flip(bits, f.BER)
		case WireBurst:
			every := max(f.BurstEvery, 1)
			if (round-f.From)%every != 0 {
				continue
			}
			start := 0
			if len(bits) > f.BurstLen {
				start = rng.Intn(len(bits) - f.BurstLen + 1)
			}
			for i := start; i < len(bits) && i < start+f.BurstLen; i++ {
				bits[i] ^= 1
				flipped++
			}
		case WireStuck:
			for i := range bits {
				if bits[i]&1 != f.StuckValue {
					bits[i] = f.StuckValue
					flipped++
				}
			}
		case WireErasure:
			return len(bits), true
		}
	}
	return flipped, erased
}

// Live reports whether any of the plane's faults is live in the given
// round. A plane with none live corrupts nothing that round.
func (p *CorruptionPlane) Live(round int) bool {
	return p != nil && slices.ContainsFunc(p.Faults(), func(f WireFault) bool { return f.active(round) })
}

// Cross carries a frame's bit stream across every link of its path
// (see Path) in the given round, corrupting it in place link by link,
// and reports whether a link erased it (the crossing then stops).
func (p *CorruptionPlane) Cross(round, stages, input, output int, bits []byte) (erased bool) {
	_, erased = p.Corrupt(round, LinkAddr{Stage: 0, Wire: input}, bits)
	for s := 1; s <= max(stages, 1) && !erased; s++ {
		_, erased = p.Corrupt(round, LinkAddr{Stage: s, Wire: output}, bits)
	}
	return erased
}

// Path lists the links a message established at setup crosses in a
// switch with stages chip stages: the input-side link (stage 0, wire =
// input), then the bundle leaving each chip stage at the message's
// settled position — approximated by its output wire, which is exact
// for the final board-level link where receivers observe corruption.
// A single-chip switch (stages ≤ 1) has just the input and output links.
func Path(stages, input, output int) []LinkAddr {
	if stages < 1 {
		stages = 1
	}
	path := make([]LinkAddr, 0, stages+1)
	path = append(path, LinkAddr{Stage: 0, Wire: input})
	for s := 1; s <= stages; s++ {
		path = append(path, LinkAddr{Stage: s, Wire: output})
	}
	return path
}

package health

import (
	"fmt"
	"sort"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
)

// RepairDelay is the constant gate-delay cost of the repair layer's
// hardwired spare-output remapping (its configuration changes only when
// the degradation is reprogrammed, like the §4 barrel shifters).
const RepairDelay = 1

// DegradedSwitch keeps a multichip switch serving traffic after faults
// have been localized, under a recomputed — provably weaker — partial
// concentration contract. Two repair mechanisms are modelled, both
// standard spare-resource techniques for multichip packet-switch cores
// (cf. Tiny Tera's per-chip sparing and MIN reconfiguration around
// faulty elements):
//
//   - Chip bypass: a localized faulty chip is cut out of the signal
//     path and replaced by unsorted spare feed-through lanes (for a
//     shifter chip: an unrotated feed-through). Nothing is destroyed
//     any more, but the chip's sorting work is lost, which costs at
//     most its port count in nearsortedness: ε′ = ε + Σ ports. When
//     the bypassed chip is on the final stage, the repair board also
//     taps the chip's full line so messages stranded beyond the
//     m-boundary can be re-driven onto spare outputs.
//
//   - Output quarantine: a stuck-at final-stage output wire is a bad
//     switch output pin; its chip keeps sorting (the repair board
//     re-drives the chip's logic), but the wire is excluded from the
//     output set and any message concentrated onto it is re-driven
//     onto a free spare output. Masking f such wires yields an
//     (n, m−f, 1−ε′/(m−f)) partial concentrator by Lemma 2.
//
// Route therefore always satisfies CheckPartialConcentration against
// the degraded contract (Outputs() = m−f, EpsilonBound() = ε′), and —
// because bypass and quarantine destroy nothing — faults covered by
// the degradation cause zero further message loss.
type DegradedSwitch struct {
	inner core.FaultInjectable
	m, n  int

	cleared     map[[2]int]bool // final-stage stuck chips: fault re-driven away, wire quarantined
	bypassed    map[[2]int]int  // bypassed chips -> port count (ε penalty)
	repairChips map[[2]int]bool // bypassed final-stage chips with full-line repair taps

	quarantined []int // masked inner output wires, ascending
	remap       []int // inner output -> degraded output (-1 when quarantined)
	wire        []int // degraded output -> inner output, the inverse of remap
	epsPenalty  int
}

// NewDegradedSwitch derives the degraded configuration for the
// localized faults (typically ScanReport.Faults).
func NewDegradedSwitch(sw core.FaultInjectable, faults []LocalizedFault) (*DegradedSwitch, error) {
	stages := sw.StageChips()
	final := len(stages) - 1
	d := &DegradedSwitch{
		inner:       sw,
		m:           sw.Outputs(),
		n:           sw.Inputs(),
		cleared:     make(map[[2]int]bool),
		bypassed:    make(map[[2]int]int),
		repairChips: make(map[[2]int]bool),
		remap:       make([]int, sw.Outputs()),
	}
	for _, f := range faults {
		if f.Stage < 0 || f.Stage >= len(stages) || f.Chip < 0 || f.Chip >= stages[f.Stage].Chips {
			return nil, fmt.Errorf("health: localized fault %v out of range for %s", f, sw.Name())
		}
		st := stages[f.Stage]
		if f.Stage == final && f.ModeKnown && f.Mode == core.ChipStuckOutput && len(f.Ports) == 1 {
			d.cleared[f.key()] = true
			if pos := wirePosition(st, f.Chip, f.Ports[0]); pos >= 0 && pos < d.m && d.remap[pos] != -1 {
				d.remap[pos] = -1
				d.quarantined = append(d.quarantined, pos)
			}
			continue
		}
		if _, dup := d.bypassed[f.key()]; !dup {
			d.bypassed[f.key()] = st.Ports
			d.epsPenalty += st.Ports
		}
		if f.Stage == final {
			d.repairChips[f.key()] = true
		}
	}
	sort.Ints(d.quarantined)
	for o, r := range d.remap {
		if r != -1 {
			d.remap[o] = len(d.wire)
			d.wire = append(d.wire, o)
		}
	}
	return d, nil
}

// effectivePlane is the inner switch's live plane with the degraded
// repairs applied: cleared faults removed, bypassed chips forced to
// pass-through spare lanes. Faults injected after this degradation was
// derived stay active — they keep hurting until the next scan.
func (d *DegradedSwitch) effectivePlane() *core.FaultPlane {
	p := d.inner.ActiveFaultPlane().Clone()
	for key := range d.cleared {
		p.Remove(key[0], key[1])
	}
	for key := range d.bypassed {
		p.Add(core.ChipFault{Stage: key[0], Chip: key[1], Mode: core.ChipPassThrough})
	}
	return p
}

// Route implements core.Concentrator under the degraded contract. One
// pass over the inner routing renumbers every entry on a live wire onto
// the compacted degraded outputs and lists, in input order, the entries
// that landed on quarantined wires. The pass visits every input, not
// only the valid ones: a live stuck output the degradation does not
// cover routes phantoms from idle inputs.
func (d *DegradedSwitch) Route(valid *bitvec.Vector) ([]int, error) {
	plane := d.effectivePlane()
	var out []int
	var finalSnap core.Snapshot
	if len(d.repairChips) > 0 {
		snaps, o, err := d.inner.TraceWithPlane(valid, plane)
		if err != nil {
			return nil, err
		}
		out, finalSnap = o, snaps[len(snaps)-1]
	} else {
		o, err := d.inner.RouteWithPlane(valid, plane)
		if err != nil {
			return nil, err
		}
		out = o
	}

	// The taken degraded outputs, one bit each: on the stack up to 4096
	// outputs.
	mp := d.Outputs()
	var stack [64]uint64
	taken := stack[:]
	if mp > 64*len(stack) {
		taken = make([]uint64, (mp+63)/64)
	}
	var stranded []int
	for i, o := range out {
		if o < 0 {
			continue
		}
		if r := d.remap[o]; r >= 0 {
			out[i] = r
			taken[r>>6] |= uint64(1) << uint(r&63)
		} else {
			out[i] = -1
			stranded = append(stranded, i)
		}
	}
	// Via the repair taps, live messages stranded beyond the m-boundary
	// on a bypassed final-stage chip need a spare output too.
	if len(d.repairChips) > 0 {
		stages := d.inner.StageChips()
		st := stages[len(stages)-1]
		for key := range d.repairChips {
			for _, id := range line(finalSnap, st, key[1]) {
				if id >= 0 && out[id] == -1 {
					stranded = append(stranded, id)
				}
			}
		}
		sort.Ints(stranded)
	}

	// Re-drive each stranded message onto the lowest free degraded
	// output. remap is strictly increasing on live wires, so that is the
	// lowest free live inner wire, renumbered.
	next := 0
	for _, i := range stranded {
		for next < mp && taken[next>>6]&(uint64(1)<<uint(next&63)) != 0 {
			next++
		}
		if next == mp {
			break // no spare left: only possible beyond the degraded threshold
		}
		out[i] = next
		next++
	}
	return out, nil
}

// Name implements core.Concentrator.
func (d *DegradedSwitch) Name() string {
	return fmt.Sprintf("degraded %s (quarantined %d, bypassed %d)",
		d.inner.Name(), len(d.quarantined), len(d.bypassed))
}

// Inputs implements core.Concentrator.
func (d *DegradedSwitch) Inputs() int { return d.n }

// Outputs implements core.Concentrator: m′ = m − f.
func (d *DegradedSwitch) Outputs() int { return d.m - len(d.quarantined) }

// EpsilonBound implements core.Concentrator: ε′ = ε plus the port count
// of every bypassed chip. By Lemma 2 the degraded switch is an
// (n, m−f, 1−ε′/(m−f)) partial concentrator.
func (d *DegradedSwitch) EpsilonBound() int { return d.inner.EpsilonBound() + d.epsPenalty }

// GateDelays implements core.Concentrator: the repair layer adds a
// constant (its remapping is hardwired once configured).
func (d *DegradedSwitch) GateDelays() int { return d.inner.GateDelays() + RepairDelay }

// ChipsTraversed implements core.Concentrator: messages cross the
// repair board.
func (d *DegradedSwitch) ChipsTraversed() int { return d.inner.ChipsTraversed() + 1 }

// ChipCount implements core.Concentrator: one repair board.
func (d *DegradedSwitch) ChipCount() int { return d.inner.ChipCount() + 1 }

// DataPinsPerChip implements core.Concentrator.
func (d *DegradedSwitch) DataPinsPerChip() int { return d.inner.DataPinsPerChip() }

package health

import (
	"fmt"

	"concentrators/internal/core"
)

// OutputWireFault converts a distrusted board-level output wire into
// the LocalizedFault that quarantines exactly that wire: the wire is
// attributed to its final-stage chip and port as a stuck-output fault,
// which NewDegradedSwitch handles by masking the wire and re-driving
// anything concentrated onto it — the Lemma 2 (n, m−1, 1−ε/(m−1))
// degradation.
//
// This is the escalation path for the wire-level corruption plane: a
// link whose EWMA corruption rate stays over threshold is handed to
// the health plane exactly like a stuck output pin, even though the
// chip behind it sorts perfectly — the wire, not the chip, is the
// fault.
func OutputWireFault(sw core.FaultInjectable, wire int) (LocalizedFault, error) {
	stages := sw.StageChips()
	if len(stages) == 0 {
		return LocalizedFault{}, fmt.Errorf("health: %s has no chip stages", sw.Name())
	}
	if wire < 0 || wire >= sw.Outputs() {
		return LocalizedFault{}, fmt.Errorf("health: output wire %d out of range [0,%d)", wire, sw.Outputs())
	}
	final := len(stages) - 1
	st := stages[final]
	var chip, port int
	if st.ChipsAreColumns {
		// wirePosition: pos = port·Chips + chip.
		chip, port = wire%st.Chips, wire/st.Chips
	} else {
		// wirePosition: pos = chip·Ports + port.
		chip, port = wire/st.Ports, wire%st.Ports
	}
	return LocalizedFault{
		Stage:     final,
		Chip:      chip,
		Mode:      core.ChipStuckOutput,
		ModeKnown: true,
		Ports:     []int{port},
	}, nil
}

// OutputWire returns the physical inner output wire that degraded
// output o drives — the address the wire-level corruption plane and
// link monitor key on. Receivers observe corruption on physical
// board wires; the degraded contract only renumbers them.
func (d *DegradedSwitch) OutputWire(o int) (int, error) {
	if o < 0 || o >= d.Outputs() {
		return 0, fmt.Errorf("health: degraded output %d out of range [0,%d)", o, d.Outputs())
	}
	return d.wire[o], nil
}

package health

import (
	"fmt"
	"slices"

	"concentrators/internal/core"
	"concentrators/internal/link"
	"concentrators/internal/switchsim"
)

// LinkEscalator is the health plane's handler for persistently-
// corrupting output links reported by the ARQ layer's EWMA monitor.
// Escalation mirrors the chip-fault path: a confirming BIST scan runs
// first (corruption on a board wire is invisible to the scan — the
// chips behind it sort perfectly — but a real corruption symptom can
// also be a failing final-stage chip, and the scan settles which), then
// the wire joins the quarantine set and the serving contract is rebuilt
// under Lemma 2 with the scan's chip faults AND every distrusted wire:
// (n, m−f, 1−ε′/(m−f)).
//
// The escalator is cumulative: each call folds the new wire into the
// set, so a session that distrusts several wires converges to one
// degraded contract covering all of them.
type LinkEscalator struct {
	sw    core.FaultInjectable
	wires []int // physical output wires quarantined so far, ascending
}

// NewLinkEscalator builds the escalator for sw.
func NewLinkEscalator(sw core.FaultInjectable) *LinkEscalator {
	return &LinkEscalator{sw: sw}
}

// Escalate quarantines the output wire behind the suspect link and
// returns the recomputed serving contract. It satisfies
// switchsim.LinkEscalator (via method value e.Escalate).
func (e *LinkEscalator) Escalate(at link.LinkAddr) (*switchsim.LinkEscalation, error) {
	if at.Wire < 0 || at.Wire >= e.sw.Outputs() {
		return nil, fmt.Errorf("health: suspect link %v is not an output wire of %s", at, e.sw.Name())
	}
	rep, err := Scan(e.sw)
	if err != nil {
		return nil, err
	}
	i, quarantined := slices.BinarySearch(e.wires, at.Wire)
	if !quarantined {
		e.wires = slices.Insert(e.wires, i, at.Wire)
	}

	faults := append([]LocalizedFault(nil), rep.Faults...)
	for _, w := range e.wires {
		wf, err := OutputWireFault(e.sw, w)
		if err != nil {
			return nil, err
		}
		faults = append(faults, wf)
	}
	deg, err := NewDegradedSwitch(e.sw, faults)
	if err != nil {
		return nil, err
	}
	if core.Threshold(deg) <= 0 {
		// The degraded contract guarantees nothing — quarantining this
		// wire would be worse than living with its corruption. Leave
		// the contract alone (the monitor still stops charging the
		// link, so the session keeps running on its current switch).
		e.wires = slices.Delete(e.wires, i, i+1)
		return &switchsim.LinkEscalation{ScanRoutes: rep.Routes}, nil
	}
	return &switchsim.LinkEscalation{
		Serving:    deg,
		OutputWire: deg.OutputWire,
		ScanRoutes: rep.Routes,
	}, nil
}

// RunIntegritySession runs a wire-integrity session with the health
// plane wired in: suspect output links escalate through a BIST scan
// into wire quarantine and a recomputed (n, m−f, α′) degraded
// contract. cfg.Integrity must be non-nil; its Escalate hook is
// installed here (any caller-provided hook is an error — use
// switchsim.RunSession directly to supply your own).
func RunIntegritySession(sw core.FaultInjectable, cfg switchsim.SessionConfig) (*switchsim.SessionStats, error) {
	if cfg.Integrity == nil {
		return nil, fmt.Errorf("health: RunIntegritySession needs cfg.Integrity")
	}
	if cfg.Integrity.Escalate != nil {
		return nil, fmt.Errorf("health: cfg.Integrity.Escalate is installed by RunIntegritySession")
	}
	ic := *cfg.Integrity
	ic.Escalate = NewLinkEscalator(sw).Escalate
	cfg.Integrity = &ic
	return switchsim.RunSession(sw, cfg)
}

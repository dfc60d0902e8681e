package pool

import (
	"bytes"
	"fmt"

	"concentrators/internal/core"
	"concentrators/internal/health"
	"concentrators/internal/link"
	"concentrators/internal/switchsim"
)

// Wire-level integrity in the pool. Each replica board carries its own
// corruption plane (injected by the chaos harness through
// InjectWireFault) and its own receiver-side link monitor over the
// board's output wires. A corrupted delivery is never counted
// Delivered: it is stripped from the round's result (the ARQ layer
// above sees a drop and retries), charged to the output wire it
// arrived on, and booked as a contract violation — so corruption
// drives the same Suspect → trip → quarantine breaker and in-round
// failover that chip faults do. A wire whose EWMA corruption rate
// stays over threshold is quarantined permanently via the Lemma 2
// machinery: an OutputWireFault joins the replica's fault record and
// the serving contract is rebuilt as (n, m−f, 1−ε′/(m−f)).
//
// BIST probe scans cannot see wire corruption — the chips behind a
// noisy trace sort perfectly — so probe verdicts rebuild the contract
// from the union of scan-localized chip faults AND the receiver's
// quarantined wires. Without that union a clean probe would re-admit
// the replica at full contract, the noisy wire would violate again,
// and the breaker would flap forever.

// InjectWireFault adds a wire-level fault to replica i's corruption
// plane — the chaos harness's data-plane injection port. The plane is
// created (seeded by replica index) on first use.
func (p *Pool) InjectWireFault(i int, f link.WireFault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r, err := p.replicaLocked(i)
	if err != nil {
		return err
	}
	if r.plane == nil {
		r.plane = link.NewCorruptionPlane(int64(i) + 1)
	}
	return r.plane.Add(f)
}

// applyWireNoiseLocked streams the round's deliveries across replica
// r's corruption plane. Corrupted or erased deliveries are moved to
// DroppedInputs (never counted Delivered); every delivery is observed
// against the physical output wire it crossed. Returns the cleaned
// result and the number of corrupted deliveries. In a round with no
// live fault every delivery arrives clean and res is returned as is.
func (p *Pool) applyWireNoiseLocked(r *replica, round int64, res *switchsim.Result) (*switchsim.Result, int) {
	if r.plane == nil || r.plane.Len() == 0 {
		return res, 0
	}
	live := r.plane.Live(int(round))
	out := res
	if live {
		cleaned := *res
		cleaned.Delivered = nil
		cleaned.DroppedInputs = append([]int(nil), res.DroppedInputs...)
		out = &cleaned
	}
	corrupted := 0
	for _, d := range res.Delivered {
		phys := d.Output
		if r.degraded != nil {
			if w, err := r.degraded.OutputWire(d.Output); err == nil {
				phys = w
			}
		}
		at := link.LinkAddr{Stage: r.stages, Wire: phys}
		if !live {
			r.monitor.Observe(at, false)
			continue
		}
		bits := append([]byte(nil), d.Payload...)
		bad := r.plane.Cross(int(round), r.stages, d.Input, phys, bits) || !bytes.Equal(bits, d.Payload)
		r.monitor.Observe(at, bad)
		if bad {
			corrupted++
			r.Corrupted++
			p.ledger.CorruptedDeliveries++
			out.DroppedInputs = append(out.DroppedInputs, d.Input)
			continue
		}
		out.Delivered = append(out.Delivered, d)
	}
	return out, corrupted
}

// escalateLinksLocked quarantines replica output wires whose EWMA
// corruption rate convicted them: each becomes an OutputWireFault in
// the replica's wire record and the serving contract is rebuilt. A
// wire whose quarantine would leave no positive guarantee threshold is
// left in service (escalated in the monitor so it stops re-triggering;
// the breaker contains the damage instead).
func (p *Pool) escalateLinksLocked(r *replica) {
	for _, at := range r.monitor.Suspects() {
		lf, err := health.OutputWireFault(r.sw, at.Wire)
		if err != nil {
			r.monitor.Escalate(at)
			continue
		}
		r.WireFaults[at.Wire] = lf
		if err := p.rebuildContractLocked(r); err != nil {
			delete(r.WireFaults, at.Wire)
			_ = p.rebuildContractLocked(r) // restore the previous contract
			r.monitor.Escalate(at)
			continue
		}
		r.monitor.Escalate(at)
		r.LinkQuarantines++
		p.ledger.LinksQuarantined++
		if r.State == Healthy || r.State == Suspect {
			r.State = Repaired
			r.ConsecViol = 0
			r.Repairs++
			p.ledger.Repairs++
		}
	}
}

// rebuildContractLocked rederives replica r's serving contract from
// its full fault record. It is an error for the rebuilt contract to
// guarantee nothing (threshold ≤ 0); the previous contract is left in
// place.
func (p *Pool) rebuildContractLocked(r *replica) error {
	d, err := contractFor(r.sw, &r.ReplicaCheckpoint)
	if err != nil {
		return err
	}
	r.degraded = d
	return nil
}

// contractFor derives the serving contract of board sw from fault
// record c: scan-localized chip faults plus quarantined output wires.
// With no faults on record it is nil, the full contract of sw itself.
func contractFor(sw core.FaultInjectable, c *ReplicaCheckpoint) (*health.DegradedSwitch, error) {
	all := make([]health.LocalizedFault, 0, len(c.KnownFaults)+len(c.WireFaults))
	all = append(all, c.KnownFaults...)
	for _, lf := range c.WireFaults {
		all = append(all, lf)
	}
	if len(all) == 0 {
		return nil, nil
	}
	d, err := health.NewDegradedSwitch(sw, all)
	if err != nil {
		return nil, err
	}
	if core.Threshold(d) <= 0 {
		return nil, fmt.Errorf("pool: rebuilt contract for replica %d guarantees nothing", c.ID)
	}
	return d, nil
}

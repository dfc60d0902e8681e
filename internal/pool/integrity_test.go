package pool

import (
	"bytes"
	"testing"

	"concentrators/internal/link"
)

func TestInjectWireFaultValidation(t *testing.T) {
	p := newPool(t, Config{}, 2)
	if err := p.InjectWireFault(0, link.WireFault{Stage: 0, Wire: 0, Mode: link.WireBitFlip, BER: 2}); err == nil {
		t.Error("accepted BER > 1")
	}
	if err := p.InjectWireFault(5, link.WireFault{Stage: 0, Wire: 0, Mode: link.WireErasure}); err == nil {
		t.Error("accepted out-of-range replica")
	}
}

// A replica whose wires corrupt everything never gets a corrupted
// payload counted Delivered: the arbiter strips the corrupted
// deliveries, books a violation, and fails over within the round.
func TestCorruptedNeverDelivered(t *testing.T) {
	p := newPool(t, Config{}, 2)
	outStage := len(p.replicas[0].sw.StageChips())
	// Stuck-at-0 board outputs: every 1-bit in every payload dies.
	if err := p.InjectWireFault(0, link.WireFault{
		Stage: outStage, Wire: link.AllWires, Mode: link.WireStuck, StuckValue: 0,
	}); err != nil {
		t.Fatal(err)
	}
	thr := p.Threshold()
	rounds := 6
	for round := 0; round < rounds; round++ {
		msgs := fullMsgs(thr)
		rr, err := p.Run(msgs)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Violated || rr.ServedBy != 1 {
			t.Fatalf("round %d: served by %d, violated %v", round, rr.ServedBy, rr.Violated)
		}
		if got := len(rr.Result.Delivered); got != thr {
			t.Fatalf("round %d: delivered %d of %d", round, got, thr)
		}
		for _, d := range rr.Result.Delivered {
			if !bytes.Equal(d.Payload, msgs[d.Input].Payload) {
				t.Fatalf("round %d: corrupted payload delivered from input %d", round, d.Input)
			}
		}
	}
	s := p.Stats()
	if s.Delivered != rounds*thr {
		t.Errorf("delivered %d, want %d (corrupted deliveries leaked into the count?)",
			s.Delivered, rounds*thr)
	}
	if s.CorruptedDeliveries < thr {
		t.Errorf("corrupted deliveries %d, want ≥ %d", s.CorruptedDeliveries, thr)
	}
	if s.Replicas[0].Corrupted != s.CorruptedDeliveries || s.Replicas[1].Corrupted != 0 {
		t.Errorf("corruption misattributed: %+v", s.Replicas)
	}
	if s.SameRoundFailovers == 0 {
		t.Error("corruption never triggered an in-round failover")
	}
	// The corrupting replica fed the health state machine: it was
	// marked Suspect and the arbiter stopped electing it.
	if s.Replicas[0].Violations == 0 || s.Replicas[0].State != Suspect {
		t.Errorf("corruption never reached the breaker: %+v", s.Replicas[0])
	}
	if s.Replicas[0].RoundsServed != 0 {
		t.Errorf("corrupting replica served %d accepted rounds", s.Replicas[0].RoundsServed)
	}
}

// A persistently corrupting output wire is convicted by the replica's
// link monitor and quarantined via the Lemma 2 machinery: the replica
// keeps serving under the recomputed (n, m−1, α′) contract and the
// corruption stops (the quarantined wire no longer carries traffic).
func TestWireQuarantineRepairsContract(t *testing.T) {
	// The breaker trips later than the monitor, which needs 8 frames.
	p := newPool(t, Config{TripThreshold: 10}, 1)
	outStage := len(p.replicas[0].sw.StageChips())
	if err := p.InjectWireFault(0, link.WireFault{
		Stage: outStage, Wire: 0, Mode: link.WireStuck, StuckValue: 0,
	}); err != nil {
		t.Fatal(err)
	}
	fullThr := p.Threshold()
	rounds := 24
	cleanTail := 0
	for round := 0; round < rounds; round++ {
		thr := p.Threshold()
		if thr <= 0 {
			t.Fatalf("round %d: replica unservable (breaker tripped before conviction?)", round)
		}
		msgs := fullMsgs(thr)
		rr, err := p.Run(msgs)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Violated {
			cleanTail = 0
			continue
		}
		cleanTail++
		for _, d := range rr.Result.Delivered {
			if !bytes.Equal(d.Payload, msgs[d.Input].Payload) {
				t.Fatalf("round %d: corrupted payload delivered", round)
			}
		}
	}
	s := p.Stats()
	if s.LinksQuarantined != 1 || s.Replicas[0].LinksQuarantined != 1 {
		t.Fatalf("wire not quarantined: %+v", s)
	}
	if s.Replicas[0].State != Repaired {
		t.Errorf("replica state %v, want repaired", s.Replicas[0].State)
	}
	if s.Replicas[0].Outputs != p.m-1 {
		t.Errorf("degraded outputs %d, want %d", s.Replicas[0].Outputs, p.m-1)
	}
	if thr := p.Threshold(); thr <= 0 || thr >= fullThr {
		t.Errorf("recomputed threshold %d, want in (0,%d)", thr, fullThr)
	}
	// Once the wire is out of the data path the rounds run clean.
	if cleanTail < rounds/2 {
		t.Errorf("only %d trailing clean rounds of %d", cleanTail, rounds)
	}
	if s.Replicas[0].Corrupted == 0 {
		t.Error("conviction without corrupt observations")
	}
}

// A transient corruption burst trips the breaker but leaves no wire
// quarantine behind: once the noise clears, the probe re-admits the
// replica at its full contract and it stays there.
func TestTransientBurstRecovers(t *testing.T) {
	p := newPool(t, Config{TripThreshold: 1, ProbeAfter: 1}, 2)
	outStage := len(p.replicas[0].sw.StageChips())
	// The burst, rounds [0,2): replica 0 corrupts, trips, traffic fails
	// over. From round 2 the noise is gone: the half-open probe scans a
	// clean fabric with no quarantined wires on record and restores the
	// full contract.
	if err := p.InjectWireFault(0, link.WireFault{
		Stage: outStage, Wire: link.AllWires, Mode: link.WireStuck, StuckValue: 0, Until: 2,
	}); err != nil {
		t.Fatal(err)
	}
	thr := p.Threshold()
	for round := 0; round < 12; round++ {
		if _, err := p.Run(fullMsgs(thr)); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Replicas[0].Trips < 1 {
		t.Fatalf("the burst never tripped replica 0: %+v", s.Replicas[0])
	}
	if s.Replicas[0].State != Healthy {
		t.Errorf("replica 0 state %v after burst cleared, want healthy", s.Replicas[0].State)
	}
	if s.Replicas[0].Outputs != p.m {
		t.Errorf("replica 0 outputs %d, want full %d", s.Replicas[0].Outputs, p.m)
	}
	if s.LinksQuarantined != 0 {
		t.Errorf("%d wires quarantined by a transient burst", s.LinksQuarantined)
	}
}

// TestExpiredWireNoiseCostsNothing: once every fault on a replica's
// corruption plane has expired, a round allocates no more than on a
// replica that never had a plane (checked without the race detector),
// and the link monitor still counts every delivery on its output wire.
func TestExpiredWireNoiseCostsNothing(t *testing.T) {
	msgs := fullMsgs(31)
	clean := newPool(t, Config{}, 1)
	burst := newPool(t, Config{}, 1)
	if err := burst.InjectWireFault(0, link.WireFault{
		Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: 0.1, Until: 1,
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pool{clean, burst} {
		if _, err := p.Run(msgs); err != nil {
			t.Fatal(err)
		}
	}
	if s := burst.Stats(); s.CorruptedDeliveries == 0 || s.LinksQuarantined != 0 {
		t.Fatalf("the burst round corrupted %d deliveries and quarantined %d wires, want some and none",
			s.CorruptedDeliveries, s.LinksQuarantined)
	}

	run := func(p *Pool) func() {
		return func() {
			if _, err := p.Run(msgs); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, got := testing.AllocsPerRun(20, run(clean)), testing.AllocsPerRun(20, run(burst))
	if got > want && !raceEnabled {
		t.Errorf("%v allocs a round after the burst expired, %v with no plane", got, want)
	}

	r := burst.replicas[0]
	wire := func(w int) link.LinkAddr { return link.LinkAddr{Stage: len(r.sw.StageChips()), Wire: w} }
	frames := make([]int, burst.m)
	for w := range frames {
		frames[w] = r.monitor.Health(wire(w)).Frames
	}
	for round := 0; round < 5; round++ {
		rr, err := burst.Run(msgs)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range rr.Result.Delivered {
			frames[d.Output]++
		}
	}
	for w, want := range frames {
		if got := r.monitor.Health(wire(w)).Frames; got != want {
			t.Errorf("output wire %d observed %d frames, want %d", w, got, want)
		}
	}
}

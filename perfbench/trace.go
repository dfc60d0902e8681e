package main

import (
	"time"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
)

// spans accumulates the core-layer spans recorded by tracedSwitch
// decorators. Every workload drives its pool or session from a single
// goroutine (pool.Config.Parallel is 0), so the counters need no
// synchronization.
type spans struct {
	routeCalls  int   // Route, RouteInto, RouteWithPlane, TraceWithPlane
	routeNs     int64 // time inside those calls
	planeRoutes int   // route calls taken with a non-empty fault plane
	goldenCalls int   // GoldenStage calls (health.Scan only)
	goldenNs    int64 // time inside GoldenStage
}

// coreNs is the time spent inside every decorated core call.
func (s spans) coreNs() int64 { return s.routeNs + s.goldenNs }

// tracedSwitch is the replica timing decorator of the traced pass: it
// forwards every core.FaultInjectable and core.RouterInto call to the
// wrapped switch unchanged and records a wall-clock span around the
// routing and golden-stage calls (single-threaded calls, where a
// per-call getrusage would cost more than a small route). It observes
// the layers from outside, so the simulated transcript is identical
// with and without it.
type tracedSwitch struct {
	inner replicaSwitch
	sp    *spans
}

// replicaSwitch is what a pool replica or session switch offers: fault
// injection plus the in-place route the simulator prefers.
type replicaSwitch interface {
	core.FaultInjectable
	RouteInto(dst []int, valid *bitvec.Vector) error
}

func (t *tracedSwitch) endRoute(start time.Time, plane *core.FaultPlane) {
	t.sp.routeNs += int64(time.Since(start))
	t.sp.routeCalls++
	if plane.Len() > 0 {
		t.sp.planeRoutes++
	}
}

func (t *tracedSwitch) Name() string         { return t.inner.Name() }
func (t *tracedSwitch) Inputs() int          { return t.inner.Inputs() }
func (t *tracedSwitch) Outputs() int         { return t.inner.Outputs() }
func (t *tracedSwitch) EpsilonBound() int    { return t.inner.EpsilonBound() }
func (t *tracedSwitch) GateDelays() int      { return t.inner.GateDelays() }
func (t *tracedSwitch) ChipsTraversed() int  { return t.inner.ChipsTraversed() }
func (t *tracedSwitch) ChipCount() int       { return t.inner.ChipCount() }
func (t *tracedSwitch) DataPinsPerChip() int { return t.inner.DataPinsPerChip() }

func (t *tracedSwitch) StageChips() []core.StageInfo           { return t.inner.StageChips() }
func (t *tracedSwitch) SetFaultPlane(p *core.FaultPlane) error { return t.inner.SetFaultPlane(p) }
func (t *tracedSwitch) ActiveFaultPlane() *core.FaultPlane     { return t.inner.ActiveFaultPlane() }

func (t *tracedSwitch) Route(valid *bitvec.Vector) ([]int, error) {
	defer t.endRoute(time.Now(), t.inner.ActiveFaultPlane())
	return t.inner.Route(valid)
}

func (t *tracedSwitch) RouteInto(dst []int, valid *bitvec.Vector) error {
	defer t.endRoute(time.Now(), t.inner.ActiveFaultPlane())
	return t.inner.RouteInto(dst, valid)
}

func (t *tracedSwitch) RouteWithPlane(valid *bitvec.Vector, p *core.FaultPlane) ([]int, error) {
	defer t.endRoute(time.Now(), p)
	return t.inner.RouteWithPlane(valid, p)
}

func (t *tracedSwitch) TraceWithPlane(valid *bitvec.Vector, p *core.FaultPlane) ([]core.Snapshot, []int, error) {
	defer t.endRoute(time.Now(), p)
	return t.inner.TraceWithPlane(valid, p)
}

func (t *tracedSwitch) GoldenStage(stage int, prev core.Snapshot) (core.Snapshot, error) {
	start := time.Now()
	defer func() {
		t.sp.goldenNs += int64(time.Since(start))
		t.sp.goldenCalls++
	}()
	return t.inner.GoldenStage(stage, prev)
}

var (
	_ core.FaultInjectable = (*tracedSwitch)(nil)
	_ core.RouterInto      = (*tracedSwitch)(nil)
)

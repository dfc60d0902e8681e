package concentrators

// One benchmark per table and figure of the paper (see the
// per-experiment index in DESIGN.md). Each benchmark prints its
// regenerated rows/series once — the same content the paper reports —
// and then times the representative hot operation of that experiment.
// Pure performance benchmarks for the substrates follow at the bottom.

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"concentrators/internal/banyan"
	"concentrators/internal/bdd"
	"concentrators/internal/bench"
	"concentrators/internal/bitonic"
	"concentrators/internal/bitvec"
	"concentrators/internal/byzantine"
	"concentrators/internal/concgraph"
	"concentrators/internal/core"
	"concentrators/internal/gatelevel"
	"concentrators/internal/health"
	"concentrators/internal/hyper"
	"concentrators/internal/journal"
	"concentrators/internal/knockout"
	"concentrators/internal/layout"
	"concentrators/internal/link"
	"concentrators/internal/mesh"
	"concentrators/internal/nearsort"
	"concentrators/internal/optroute"
	"concentrators/internal/overload"
	"concentrators/internal/partition"
	"concentrators/internal/pool"
	"concentrators/internal/seedrand"
	"concentrators/internal/seqhyper"
	"concentrators/internal/switchsim"
	"concentrators/internal/timing"
	"concentrators/internal/workload"
)

var reportOnce sync.Map // experiment id → *sync.Once

// report regenerates the experiment's table/figure once per process and
// logs it through the benchmark, so `go test -bench` output carries the
// reproduced rows/series.
func report(b *testing.B, id string) {
	b.Helper()
	once, _ := reportOnce.LoadOrStore(id, new(sync.Once))
	once.(*sync.Once).Do(func() {
		e, err := bench.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
		b.Logf("\n%s", buf.String())
	})
}

func randomPattern(rng *rand.Rand, n int) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Intn(2) == 1)
	}
	return v
}

// --- Table 1 -----------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	report(b, "T1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Table1(4096, 2048); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures -------------------------------------------------------------------

func BenchmarkFig1NearsortStructure(b *testing.B) {
	report(b, "F1")
	rng := rand.New(rand.NewSource(1))
	v := randomPattern(rng, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eps := v.Nearsortedness()
		if err := nearsort.CheckLemma1(v, eps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Converse(b *testing.B) {
	report(b, "F2")
	p := nearsort.Fig2Params{N: 4096, M: 1024, Eps: 16, K: 1200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := nearsort.Fig2Counterexample(p)
		if err != nil {
			b.Fatal(err)
		}
		if nearsort.IsNearsorted(v, p.Eps) {
			b.Fatal("counterexample broken")
		}
	}
}

func BenchmarkFig3Revsort2D(b *testing.B) {
	report(b, "F3")
	sw, err := core.NewRevsortSwitch(64, 28)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	v := (workload.FixedCount{K: 24}).Pattern(rng, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Route(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Revsort3D(b *testing.B) {
	report(b, "F4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.RevsortPackage(4096, 2048); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRevsortDirtyRows(b *testing.B) {
	report(b, "F5")
	rng := rand.New(rand.NewSource(3))
	side := 64
	src, err := mesh.FromRowMajor(randomPattern(rng, side*side), side, side)
	if err != nil {
		b.Fatal(err)
	}
	bound := mesh.Algorithm1DirtyBound(side * side)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		if err := mesh.Algorithm1(m); err != nil {
			b.Fatal(err)
		}
		if m.DirtyRows() > bound {
			b.Fatal("dirty-row bound violated")
		}
	}
}

func BenchmarkFig6Columnsort2D(b *testing.B) {
	report(b, "F6")
	sw, err := core.NewColumnsortSwitch(8, 4, 18)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	v := (workload.FixedCount{K: 14}).Pattern(rng, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Route(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Columnsort3D(b *testing.B) {
	report(b, "F7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.ColumnsortPackage(512, 8, 2048); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Transposer(b *testing.B) {
	report(b, "F8")
	b.ResetTimer()
	total := 0.0
	for i := 0; i < b.N; i++ {
		for w := 2; w <= 64; w <<= 1 {
			total += layout.TransposerVolume(w)
		}
	}
	_ = total
}

// --- Theorems -------------------------------------------------------------------

func BenchmarkTheorem3LoadRatio(b *testing.B) {
	report(b, "T3")
	sw, err := core.NewRevsortSwitch(1024, 512)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	v := randomPattern(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sw.Route(v)
		if err != nil {
			b.Fatal(err)
		}
		if err := nearsort.CheckPartialConcentration(v, out, 512, sw.EpsilonBound()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem4LoadRatio(b *testing.B) {
	report(b, "T4")
	sw, err := core.NewColumnsortSwitch(128, 8, 512)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	v := randomPattern(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sw.Route(v)
		if err != nil {
			b.Fatal(err)
		}
		if err := nearsort.CheckPartialConcentration(v, out, 512, sw.EpsilonBound()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Delays -----------------------------------------------------------------------

func BenchmarkGateDelays(b *testing.B) {
	report(b, "D1")
	nl, err := hyper.BuildNetlist(64)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	v := randomPattern(rng, 64)
	payload := make([]bool, 64)
	for i := range payload {
		payload[i] = rng.Intn(2) == 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := nl.Eval(v, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §6 full sorters ------------------------------------------------------------------

func BenchmarkFullRevsortHyper(b *testing.B) {
	report(b, "S6a")
	sw, err := core.NewFullRevsortHyper(1024, 1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	v := randomPattern(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Route(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullColumnsortHyper(b *testing.B) {
	report(b, "S6b")
	sw, err := core.NewFullColumnsortHyper(128, 8, 1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	v := randomPattern(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Route(v); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations --------------------------------------------------------------------------

func BenchmarkAblationRotation(b *testing.B) {
	report(b, "X1")
	rng := rand.New(rand.NewSource(10))
	side := 64
	src, err := mesh.FromRowMajor(randomPattern(rng, side*side), side, side)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		if err := mesh.RevRotate(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBeta(b *testing.B) {
	report(b, "X2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.BetaSweep(4096, 2048); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThroughput(b *testing.B) {
	report(b, "X3")
	sw, err := core.NewColumnsortSwitch(128, 8, 512)
	if err != nil {
		b.Fatal(err)
	}
	stream := seedrand.NewStream(11)
	msgs := switchsim.RandomMessages(&stream, 1024, 0.4, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := switchsim.Run(sw, msgs)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Delivered) == 0 {
			b.Fatal("nothing delivered")
		}
	}
	b.ReportMetric(float64(len(msgs))*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

func BenchmarkTwoStageReach(b *testing.B) {
	report(b, "X4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layout.TwoStageReach(256, 0.5)
	}
}

func BenchmarkObliviousPrice(b *testing.B) {
	report(b, "X5")
	tp, err := optroute.ColumnsortTopology(8, 4, 18)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	v := randomPattern(rng, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tp.MaxRoutable(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGateLevelComposition(b *testing.B) {
	report(b, "D2")
	sw, err := gatelevel.BuildColumnsort(8, 4, 18)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	v := randomPattern(rng, 32)
	payload := make([]bool, 32)
	for i := range payload {
		payload[i] = rng.Intn(2) == 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sw.Eval(v, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialHyper(b *testing.B) {
	report(b, "X6")
	sw, err := seqhyper.New(256)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	v := randomPattern(rng, 256)
	payloads := map[int][]bool{}
	if _, err := sw.Setup(v); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if v.Get(i) {
			p := make([]bool, 16)
			for j := range p {
				p[j] = rng.Intn(2) == 1
			}
			payloads[i] = p
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Setup(v); err != nil {
			b.Fatal(err)
		}
		if _, _, err := sw.Stream(payloads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitonicBaseline(b *testing.B) {
	report(b, "X7")
	sw, err := bitonic.NewSwitch(1024, 512)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	v := randomPattern(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Route(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCongestionPolicies(b *testing.B) {
	report(b, "X8")
	sw, err := core.NewPerfectSwitch(64, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := switchsim.RunSession(sw, switchsim.SessionConfig{
			Policy: switchsim.Resend, Load: 0.5, Rounds: 50, PayloadBits: 8, Seed: 23, AckDelay: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphConcentrators(b *testing.B) {
	report(b, "X9")
	rng := rand.New(rand.NewSource(24))
	g, err := concgraph.RandomRegular(20, 10, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ExactCapacity(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTruncatedNearsorter(b *testing.B) {
	report(b, "X10")
	sw, err := bitonic.NewTruncatedSwitch(16, 10, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	v := randomPattern(rng, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Route(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormalVerification(b *testing.B) {
	report(b, "D3")
	nl, err := hyper.BuildNetlist(16)
	if err != nil {
		b.Fatal(err)
	}
	opt := nl.Net.Optimize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eq, err := bdd.Equivalent(nl.Net, opt)
		if err != nil || !eq {
			b.Fatal("equivalence proof failed")
		}
	}
}

func BenchmarkPartitioningCost(b *testing.B) {
	report(b, "X11")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := core.NewRevsortSwitch(4096, 2048)
		if err != nil {
			b.Fatal(err)
		}
		_ = sw.ChipCount()
	}
}

func BenchmarkKnockoutSwitch(b *testing.B) {
	report(b, "X12")
	sw, err := knockout.New(32, 8, knockout.PerfectFactory)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	dest := make([]int, 32)
	for i := range dest {
		if rng.Intn(10) < 9 {
			dest[i] = rng.Intn(32)
		} else {
			dest[i] = -1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sw.Slot(dest); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate performance benchmarks (no figure attached) ---------------------------------

func BenchmarkHyperChipSetup(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) {
			c := hyper.MustChip(n)
			rng := rand.New(rand.NewSource(12))
			v := randomPattern(rng, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Setup(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRevsortRoute(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		b.Run(sizeName(n), func(b *testing.B) {
			sw, err := core.NewRevsortSwitch(n, n/2)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			v := randomPattern(rng, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.Route(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkColumnsortRoute(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		b.Run(sizeName(n), func(b *testing.B) {
			sw, err := core.NewColumnsortSwitchBeta(n, n/2, 0.75)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(14))
			v := randomPattern(rng, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.Route(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBanyanConcentration(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) {
			nw, err := banyan.New(n, banyan.ButterflyLSB)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(15))
			v := randomPattern(rng, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt, err := nw.RouteConcentration(v)
				if err != nil {
					b.Fatal(err)
				}
				if rt.Conflicts != 0 {
					b.Fatal("conflict")
				}
			}
		})
	}
}

func BenchmarkMeshAlgorithm1(b *testing.B) {
	for _, side := range []int{32, 64, 128} {
		b.Run(sizeName(side*side), func(b *testing.B) {
			rng := rand.New(rand.NewSource(16))
			src, err := mesh.FromRowMajor(randomPattern(rng, side*side), side, side)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := src.Clone()
				if err := mesh.Algorithm1(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBitSerialStreaming(b *testing.B) {
	sw, err := core.NewPerfectSwitch(256, 128)
	if err != nil {
		b.Fatal(err)
	}
	stream := seedrand.NewStream(17)
	msgs := switchsim.RandomMessages(&stream, 256, 0.5, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := switchsim.Run(sw, msgs); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "n=big"
	default:
		return "n=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkHealthScan times one full BIST scan — the per-scan cost a
// deployment pays every scan-every rounds — on both multichip designs.
func BenchmarkHealthScan(b *testing.B) {
	for _, tc := range []struct {
		name  string
		build func() (core.FaultInjectable, error)
	}{
		{"revsort-1024", func() (core.FaultInjectable, error) { return core.NewRevsortSwitch(1024, 512) }},
		{"columnsort-1024", func() (core.FaultInjectable, error) { return core.NewColumnsortSwitchBeta(1024, 512, 0.75) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sw, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := health.Scan(sw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"-faulty", func(b *testing.B) {
			sw, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			plane := core.NewFaultPlane()
			plane.Add(core.ChipFault{Stage: 0, Chip: 1, Mode: core.ChipDead})
			if err := sw.SetFaultPlane(plane); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := health.Scan(sw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDegradedThroughput compares per-round routing cost of a
// healthy revsort switch against two degraded configurations: a
// final-stage chip bypass, the most expensive repair (full trace plus
// repair-tap re-drive), and the pool's shape, a bypassed non-final
// chip plus a quarantined final-stage wire, which reports allocations.
func BenchmarkDegradedThroughput(b *testing.B) {
	sw, err := core.NewRevsortSwitch(1024, 512)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	v := randomPattern(rng, 1024)
	b.Run("healthy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sw.Route(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	degraded := func(b *testing.B, faults ...core.ChipFault) {
		plane := core.NewFaultPlane()
		for _, f := range faults {
			plane.Add(f)
		}
		if err := sw.SetFaultPlane(plane); err != nil {
			b.Fatal(err)
		}
		defer func() {
			if err := sw.SetFaultPlane(nil); err != nil {
				b.Fatal(err)
			}
		}()
		rep, err := health.Scan(sw)
		if err != nil {
			b.Fatal(err)
		}
		d, err := health.NewDegradedSwitch(sw, rep.Faults)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Route(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("degraded", func(b *testing.B) {
		degraded(b, core.ChipFault{Stage: core.RevsortStage3Columns, Chip: 1, Mode: core.ChipDead})
	})
	b.Run("quarantined", func(b *testing.B) {
		b.ReportAllocs()
		degraded(b,
			core.ChipFault{Stage: 0, Chip: 2, Mode: core.ChipDead},
			core.ChipFault{Stage: core.RevsortStage3Columns, Chip: 3, Mode: core.ChipStuckOutput, A: 5})
	})
}

// BenchmarkPoolFailover times a pool round whose primary violates its
// contract mid-round: online detection, breaker trip, in-round arbiter
// retarget to the hot spare, and the replayed setup — the pool's
// recovery latency, paid entirely within the round.
func BenchmarkPoolFailover(b *testing.B) {
	build := func() core.FaultInjectable {
		sw, err := core.NewColumnsortSwitchBeta(64, 32, 0.75)
		if err != nil {
			b.Fatal(err)
		}
		return sw
	}
	primary, spare := build(), build()
	msgs := make([]switchsim.Message, 0, 16)
	for i := 0; i < 16; i++ {
		msgs = append(msgs, switchsim.Message{Input: i, Payload: []byte{1, 0, 1, 1}})
	}
	fault := core.ChipFault{Stage: 0, Chip: 1, Mode: core.ChipDead}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pool.New(pool.Config{TripThreshold: 1, ProbeAfter: 4}, primary, spare)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.InjectFault(0, fault); err != nil {
			b.Fatal(err)
		}
		rr, err := p.Run(msgs)
		if err != nil {
			b.Fatal(err)
		}
		if !rr.FailedOver || rr.Violated {
			b.Fatalf("round did not fail over: %+v", rr)
		}
	}
}

// BenchmarkPartitionFailover times the full lease-fenced failover arc:
// a symmetric cut darkens the primary, the holder's lease lapses, the
// arbiter waits out the lease and re-grants under a bumped fencing
// token, and the dark primary's buffered acks are fenced at the heal.
// The reported time covers the rounds from cut to completed handoff —
// the partition-tolerance counterpart of BenchmarkPoolFailover's
// in-round retarget.
func BenchmarkPartitionFailover(b *testing.B) {
	build := func() core.FaultInjectable {
		sw, err := core.NewColumnsortSwitchBeta(64, 32, 0.75)
		if err != nil {
			b.Fatal(err)
		}
		return sw
	}
	msgs := make([]switchsim.Message, 0, 16)
	for i := 0; i < 16; i++ {
		msgs = append(msgs, switchsim.Message{Input: i, Payload: []byte{1, 0, 1, 1}})
	}
	const lease = 4
	cut := partition.Fault{Mode: partition.SymmetricCut, Replica: 0, From: 1, Until: 1 + lease + 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pool.New(pool.Config{
			TripThreshold: 1, ProbeAfter: 1,
			Lease: pool.LeaseConfig{Rounds: lease, Seed: 1},
		}, build(), build(), build())
		if err != nil {
			b.Fatal(err)
		}
		if err := p.InjectPartition(cut); err != nil {
			b.Fatal(err)
		}
		for p.Stats().LeaseHandoffs == 0 {
			rr, err := p.Run(msgs)
			if err != nil {
				b.Fatal(err)
			}
			if rr.Violated {
				b.Fatalf("failover round violated the guarantee: %+v", rr)
			}
		}
		if s := p.Stats(); s.StaleDelivered != 0 {
			b.Fatalf("%d frames delivered under a stale token", s.StaleDelivered)
		}
	}
}

// BenchmarkCorruptionQuarantine times the wire-level detection →
// quarantine path that rides next to the chip-level MTTR below: a
// stuck board-output wire corrupts deliveries until the replica's link
// monitor convicts it, the wire joins the fault record as an
// OutputWireFault, and the serving contract is rebuilt one output
// smaller. The reported time covers the corrupt rounds spent reaching
// conviction plus the contract rebuild.
func BenchmarkCorruptionQuarantine(b *testing.B) {
	sw, err := core.NewColumnsortSwitchBeta(64, 32, 0.75)
	if err != nil {
		b.Fatal(err)
	}
	msgs := make([]switchsim.Message, 0, 16)
	for i := 0; i < 16; i++ {
		msgs = append(msgs, switchsim.Message{Input: i, Payload: []byte{1, 0, 1, 1}})
	}
	outStage := len(sw.StageChips())
	fault := link.WireFault{Stage: outStage, Wire: 0, Mode: link.WireStuck, StuckValue: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Conviction, not the breaker, ends the corruption: the link
		// monitor convicts after 8 frames.
		p, err := pool.New(pool.Config{TripThreshold: 10}, sw)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.InjectWireFault(0, fault); err != nil {
			b.Fatal(err)
		}
		quarantined := false
		for round := 0; round < 10; round++ {
			if _, err := p.Run(msgs); err != nil {
				b.Fatal(err)
			}
			if p.Stats().LinksQuarantined == 1 {
				quarantined = true
				break
			}
		}
		if !quarantined {
			b.Fatal("wire never quarantined")
		}
	}
}

// BenchmarkSingleSwitchMTTR times what the same failure costs without a
// spare: the violated round, a full BIST scan to localize the fault,
// deriving the degraded configuration, and the replayed round on it —
// the single-switch mean time to repair that pool failover replaces.
func BenchmarkSingleSwitchMTTR(b *testing.B) {
	sw, err := core.NewColumnsortSwitchBeta(64, 32, 0.75)
	if err != nil {
		b.Fatal(err)
	}
	msgs := make([]switchsim.Message, 0, 16)
	for i := 0; i < 16; i++ {
		msgs = append(msgs, switchsim.Message{Input: i, Payload: []byte{1, 0, 1, 1}})
	}
	// A final-stage stuck output keeps the degraded threshold positive
	// (a dead chip's bypass would cost a full 32-port chip of ε here).
	fault := core.ChipFault{Stage: 1, Chip: 0, Mode: core.ChipStuckOutput, A: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plane := core.NewFaultPlane()
		plane.Add(fault)
		if err := sw.SetFaultPlane(plane); err != nil {
			b.Fatal(err)
		}
		res, err := switchsim.Run(sw, msgs)
		if err != nil {
			b.Fatal(err)
		}
		if switchsim.CheckGuarantee(sw, msgs, res) == nil {
			b.Fatal("fault went undetected")
		}
		rep, err := health.Scan(sw)
		if err != nil {
			b.Fatal(err)
		}
		d, err := health.NewDegradedSwitch(sw, rep.Faults)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := switchsim.Run(d, msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHedgedTailLatency times the gray-failure tail rescue: a
// 3-replica pool whose primary carries a constant 10-round straggler
// fault serves 200 rounds with and without hedged dispatch. The
// reported p99-hedged / p99-unhedged metrics are the experiment's
// result, and the ≥ 2× p99 improvement is asserted so the benchmark
// rots loudly if hedging regresses.
func BenchmarkHedgedTailLatency(b *testing.B) {
	build := func() core.FaultInjectable {
		sw, err := core.NewColumnsortSwitchBeta(64, 32, 0.75)
		if err != nil {
			b.Fatal(err)
		}
		return sw
	}
	msgs := make([]switchsim.Message, 0, 16)
	for i := 0; i < 16; i++ {
		msgs = append(msgs, switchsim.Message{Input: i, Payload: []byte{1, 0, 1, 1}})
	}
	straggler := timing.Fault{Stage: 0, Wire: link.AllWires, Mode: timing.Constant, Delay: 10}
	run := func(hedge bool) int {
		cfg := pool.Config{}
		if hedge {
			cfg.HedgeQuantile = 0.9
			cfg.HedgeBudget = 1
		}
		p, err := pool.New(cfg, build(), build(), build())
		if err != nil {
			b.Fatal(err)
		}
		if err := p.InjectTimingFault(0, straggler); err != nil {
			b.Fatal(err)
		}
		for round := 0; round < 200; round++ {
			if _, err := p.Run(msgs); err != nil {
				b.Fatal(err)
			}
		}
		lat := p.Stats().Latency
		return lat.P99()
	}
	var up99, hp99 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		up99 = run(false)
		hp99 = run(true)
	}
	if up99 < 11 {
		b.Fatalf("unhedged p99 %d: the straggler never showed", up99)
	}
	if hp99*2 > up99 {
		b.Fatalf("hedging improved p99 only %d → %d, want ≥ 2×", up99, hp99)
	}
	b.ReportMetric(float64(up99), "p99-unhedged")
	b.ReportMetric(float64(hp99), "p99-hedged")
}

// BenchmarkSurgeShedding times the overload-control experiment: a
// single-replica pool under a sustained 4× oversubscription serves a
// client session open loop (synchronized retries at the advertised
// RetryAfter — the metastable storm) and closed loop (retry budget,
// CoDel drain, congestion-aware admission). The reported goodput
// metrics are the experiment's result, and the ≥ 2× goodput improvement
// is asserted so the benchmark rots loudly if the control loop
// regresses.
func BenchmarkSurgeShedding(b *testing.B) {
	surge := overload.NewPlane(1)
	if err := surge.Add(overload.Fault{Mode: overload.Sustained, Factor: 4, From: 20}); err != nil {
		b.Fatal(err)
	}
	run := func(closed bool) int {
		sw, err := core.NewColumnsortSwitchBeta(64, 16, 0.75)
		if err != nil {
			b.Fatal(err)
		}
		var pc pool.Config
		sc := pool.OverloadSessionConfig{
			Rounds: 240, Load: 0.25, PayloadBits: 4, Seed: 42, Deadline: 8, Surge: surge,
		}
		if closed {
			pc.Overload = &overload.Config{BacklogFactor: 4}
			sc.Retry = &overload.RetryConfig{Budget: 0.01, BackoffBase: 1, BackoffCap: 2, Burst: 2}
			sc.CoDel = &overload.CoDelConfig{Target: 2, Interval: 4}
		}
		p, err := pool.New(pc, sw)
		if err != nil {
			b.Fatal(err)
		}
		st, err := pool.RunOverloadSession(p, sc)
		if err != nil {
			b.Fatal(err)
		}
		goodput := 0
		for _, g := range st.GoodputPerRound[120:] {
			goodput += g
		}
		return goodput
	}
	var open, closed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		open = run(false)
		closed = run(true)
	}
	if closed < 2*max(open, 1) {
		b.Fatalf("closed-loop goodput %d not ≥ 2× open-loop %d", closed, open)
	}
	b.ReportMetric(float64(open)/120, "goodput/round-openloop")
	b.ReportMetric(float64(closed)/120, "goodput/round-closedloop")
}

// BenchmarkCrashRecovery times crash recovery — journal replay plus
// round re-execution — as a function of the snapshot interval. A
// tighter interval spends journal bytes to shorten replay; compaction
// caps the journal at O(state). Every variant must still deliver the
// exactly-once ledger.
func BenchmarkCrashRecovery(b *testing.B) {
	cfg := switchsim.SessionConfig{
		Policy: switchsim.Resend, Load: 0.5, Rounds: 120, PayloadBits: 8, Seed: 42, AckDelay: 2,
	}
	for _, bc := range []struct {
		name          string
		snapshotEvery int
		compact       bool
	}{
		{"snapshot-every-4", 4, false},
		{"snapshot-every-16", 16, false},
		{"snapshot-every-64", 64, false},
		{"compacted-16", 16, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sw, err := core.NewColumnsortSwitchBeta(64, 32, 0.75)
			if err != nil {
				b.Fatal(err)
			}
			var rec *journal.RecoveryStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var stats *switchsim.SessionStats
				stats, rec, err = switchsim.RunDurableSession(sw, cfg, journal.Config{
					SnapshotEvery: bc.snapshotEvery,
					Compact:       bc.compact,
					Crash:         journal.GenerateCrashSchedule(cfg.Seed, cfg.Rounds, 6),
				})
				if err != nil {
					b.Fatal(err)
				}
				if stats.Offered != rec.TrueOffered {
					b.Fatalf("recovery lost offers: %d != %d", stats.Offered, rec.TrueOffered)
				}
			}
			b.ReportMetric(float64(rec.RecordsReplayed)/float64(rec.Crashes), "records-replayed/crash")
			b.ReportMetric(float64(rec.RoundsReexecuted)/float64(rec.Crashes), "rounds-reexecuted/crash")
			b.ReportMetric(float64(rec.JournalBytes), "journal-bytes")
		})
	}
}

// BenchmarkWitnessAudit times the byzantine settle path per round — the
// sending edge stamping every delivered frame, a misrouting liar
// rewriting claims, the receiving edge re-deriving every keyed sum
// through the full bit-stream framing, and the witness
// cross-examination re-routing the sampled claim through two spare
// replicas — against the plain unarmed booking on the same traffic.
// The spread is the per-round cost of misbehavior tolerance.
func BenchmarkWitnessAudit(b *testing.B) {
	build := func() core.FaultInjectable {
		sw, err := core.NewColumnsortSwitchBeta(64, 32, 0.75)
		if err != nil {
			b.Fatal(err)
		}
		return sw
	}
	msgs := make([]switchsim.Message, 0, 16)
	for i := 0; i < 16; i++ {
		msgs = append(msgs, switchsim.Message{Input: i, Payload: []byte{1, 0, 1, 1}})
	}
	for _, bc := range []struct {
		name  string
		armed bool
	}{
		{"plain-booking", false},
		{"verified-audited", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := pool.Config{TripThreshold: 4, ProbeAfter: 4}
			if bc.armed {
				cfg.Byzantine = pool.ByzantineConfig{Verify: true, AuditEvery: 1, Seed: 1}
			}
			p, err := pool.New(cfg, build(), build(), build())
			if err != nil {
				b.Fatal(err)
			}
			if bc.armed {
				err = p.InjectBehavior(byzantine.Fault{
					Mode: byzantine.Misroute, Replica: 0, Count: 2, From: 0, Until: 1 << 30,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr, err := p.Run(msgs)
				if err != nil {
					b.Fatal(err)
				}
				if rr.Violated {
					b.Fatalf("round violated: %+v", rr)
				}
			}
			if bc.armed {
				s := p.Stats()
				if s.Audits == 0 {
					b.Fatal("no audits fired")
				}
				b.ReportMetric(float64(s.Audits)/float64(b.N), "audits/round")
				b.ReportMetric(float64(s.AuditDisagreements), "disagreements")
			}
		})
	}
}

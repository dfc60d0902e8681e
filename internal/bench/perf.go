package bench

// The perf suite: machine-readable micro-benchmarks of the data-plane
// hot paths — the word-parallel route kernel, healthy and with a
// one-chip fault plane installed, the zero-alloc session round against
// the allocating one, the pool's failover-sweep round, the wire-noise
// layer with the integrity session it drives, and a chaos replay with
// its journaled checkpoints. cmd/concbench serializes a PerfReport to
// JSON (BENCH_11.json) and ComparePerf gates CI on regressions against
// a committed baseline.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"concentrators/internal/bitvec"
	"concentrators/internal/chaos"
	"concentrators/internal/core"
	"concentrators/internal/health"
	"concentrators/internal/link"
	"concentrators/internal/overload"
	"concentrators/internal/pool"
	"concentrators/internal/seedrand"
	"concentrators/internal/switchsim"
)

// PerfResult is one measured hot-path case.
type PerfResult struct {
	// Name identifies the case, e.g. "route_kernel/revsort/4096".
	Name string `json:"name"`
	// N is the switch width the case ran at (the frame length in bits
	// for the wire_corrupt cases).
	N int `json:"n"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are heap allocation costs per
	// operation (runtime.MemStats deltas).
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// PerfReport is the machine-readable payload behind BENCH_11.json.
type PerfReport struct {
	// GoMaxProcs records the parallelism the suite ran under:
	// ComparePerf gates timings only between runs that match.
	GoMaxProcs int          `json:"gomaxprocs"`
	Results    []PerfResult `json:"results"`
}

// perfSink defeats dead-code elimination of measured loops.
var perfSink int

// measure times f with a geometrically calibrated loop until one
// window reaches minTime, keeps the best of three windows (damping GC
// and scheduler noise), then charges allocations over a short counted
// run. f must be warm (scratch pools populated) before the timed loop
// so steady-state cost is what lands in the report.
//
// The counted run pauses the collector and runs on one P. A collection
// empties the sync.Pool scratch caches, and with several Ps a Get
// misses an item a Put left in another P's private slot; either books
// refills that depend on GC timing and scheduling, not on the code,
// and that differ between GOMAXPROCS settings. A collection just
// before the count empties the runtime's list of sync.Pools, so a case
// that builds switches, whose scratch pools join that list on first
// use, grows it at the same points in every run. Counted this way,
// allocs/op is the same at every GOMAXPROCS, which ComparePerf's
// allocation gate needs to hold a baseline recorded at one setting
// against a run at another. It is exact but for the runtime filling an
// interface conversion's type cache on a random sample of its misses,
// which a case that reaches cold conversion sites, like chaos_replay,
// books as a fraction of one allocation.
func measure(name string, n int, minTime time.Duration, f func()) PerfResult {
	f()
	f()
	iters, el := 1, time.Duration(0)
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		el = time.Since(start)
		if el >= minTime || iters >= 1<<24 {
			break
		}
		iters *= 2
	}
	for w := 0; w < 2; w++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		if e := time.Since(start); e < el {
			el = e
		}
	}
	const allocRuns = 16
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	f() // refill the one P's caches
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocRuns; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return PerfResult{
		Name:        name,
		N:           n,
		NsPerOp:     float64(el.Nanoseconds()) / float64(iters),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / allocRuns,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / allocRuns,
	}
}

// perfSizes are the widths every suite family runs at.
var perfSizes = []int{256, 1024, 4096}

func randomValidPerf(rng *rand.Rand, n int, load float64) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < load {
			v.Set(i, true)
		}
	}
	return v
}

// routeCases builds the route-kernel switches per width: the two
// partial concentrators and the two full-sorting hyperconcentrators.
func routeCases(n int) (map[string]core.RouterInto, error) {
	rev, err := core.NewRevsortSwitch(n, n*3/4)
	if err != nil {
		return nil, err
	}
	col, err := core.NewColumnsortSwitchBeta(n, n*3/4, 0.75)
	if err != nil {
		return nil, err
	}
	frev, err := core.NewFullRevsortHyper(n, n)
	if err != nil {
		return nil, err
	}
	// Widest s whose r = n/s still satisfies s | r and r ≥ 2(s−1)².
	fs := 1
	for _, s := range []int{16, 8, 4, 2} {
		if r := n / s; n%s == 0 && r%s == 0 && r >= 2*(s-1)*(s-1) {
			fs = s
			break
		}
	}
	fcol, err := core.NewFullColumnsortHyper(n/fs, fs, n)
	if err != nil {
		return nil, err
	}
	return map[string]core.RouterInto{
		"revsort":         rev,
		"columnsort":      col,
		"full_revsort":    frev,
		"full_columnsort": fcol,
	}, nil
}

// routeKernelPerf measures RouteInto (word kernel) for every switch
// family and width, and — as route_plane — the two partial
// concentrators with a one-chip fault plane installed: a pass-through
// stage-1 chip, the bypass a degraded replica routes through every
// round.
func routeKernelPerf(minTime time.Duration, out *[]PerfResult) error {
	rng := rand.New(rand.NewSource(71))
	for _, n := range perfSizes {
		cases, err := routeCases(n)
		if err != nil {
			return err
		}
		faulted, err := routeCases(n)
		if err != nil {
			return err
		}
		v := randomValidPerf(rng, n, 0.6)
		dst := make([]int, n)
		route := func(sw core.RouterInto) func() {
			return func() {
				if err := sw.RouteInto(dst, v); err != nil {
					panic(err)
				}
				perfSink += dst[0]
			}
		}
		for _, key := range []string{"revsort", "columnsort", "full_revsort", "full_columnsort"} {
			*out = append(*out, measure(fmt.Sprintf("route_kernel/%s/%d", key, n), n, minTime, route(cases[key])))
			fi, ok := faulted[key].(core.FaultInjectable)
			if !ok {
				continue
			}
			plane := core.NewFaultPlane()
			plane.Add(core.ChipFault{Stage: 0, Chip: 1, Mode: core.ChipPassThrough})
			if err := fi.SetFaultPlane(plane); err != nil {
				return err
			}
			*out = append(*out, measure(fmt.Sprintf("route_plane/%s/%d", key, n), n, minTime, route(faulted[key])))
		}
	}
	return nil
}

// sessionRoundPerf measures a steady-state bit-serial session round:
// the reusable zero-alloc Runner against the package-level
// switchsim.Run, which runs one round of a fresh Runner — so the
// session_legacy case times what buffer reuse saves.
func sessionRoundPerf(minTime time.Duration, out *[]PerfResult) error {
	stream := seedrand.NewStream(72)
	for _, n := range perfSizes {
		sw, err := core.NewRevsortSwitch(n, n*3/4)
		if err != nil {
			return err
		}
		msgs := switchsim.RandomMessages(&stream, n, 0.6, 16)
		runner := switchsim.NewRunner(sw)
		*out = append(*out, measure(fmt.Sprintf("session_round/revsort/%d", n), n, minTime, func() {
			res, err := runner.Run(msgs)
			if err != nil {
				panic(err)
			}
			perfSink += len(res.Delivered)
		}))
		*out = append(*out, measure(fmt.Sprintf("session_legacy/revsort/%d", n), n, minTime, func() {
			res, err := switchsim.Run(sw, msgs)
			if err != nil {
				panic(err)
			}
			perfSink += len(res.Delivered)
		}))
	}
	return nil
}

// failoverPool builds the pool-round fixture: four replicas, each
// carrying a dead chip behind an effectively infinite trip threshold,
// so every round sweeps the whole replica set.
func failoverPool(n int) (*pool.Pool, error) {
	cfg := pool.Config{TripThreshold: 1 << 30}
	switches := make([]core.FaultInjectable, 4)
	for i := range switches {
		sw, err := core.NewColumnsortSwitchBeta(n, n/2, 0.75)
		if err != nil {
			return nil, err
		}
		switches[i] = sw
	}
	p, err := pool.New(cfg, switches...)
	if err != nil {
		return nil, err
	}
	for i := range switches {
		if err := p.InjectFault(i, core.ChipFault{Stage: 0, Chip: 0, Mode: core.ChipDead}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// poolRoundPerf measures one failover-sweep pool round. The case keeps
// the name pool_round_seq that the committed baselines record.
func poolRoundPerf(minTime time.Duration, out *[]PerfResult) error {
	stream := seedrand.NewStream(73)
	for _, n := range perfSizes {
		msgs := switchsim.RandomMessages(&stream, n, 0.4, 8)
		p, err := failoverPool(n)
		if err != nil {
			return err
		}
		*out = append(*out, measure(fmt.Sprintf("pool_round_seq/%d", n), n, minTime, func() {
			rr, err := p.Run(msgs)
			if err != nil {
				panic(err)
			}
			perfSink += rr.ServedBy
		}))
	}
	return nil
}

// wireBER is the ambient bit-flip rate of the wire cases, as in
// concsim -ber 1e-3.
const wireBER = 1e-3

// wirePerf measures the wire-noise layer and the session that streams
// frames through it: one frame's Corrupt across the 3 links of a
// two-stage path, at 56 bits (inside the noise stream's 273-draw
// window) and at 700 bits (past it), and one health.RunIntegritySession
// of a Columnsort n=256 switch at BER 1e-3 with CRC-16 and ARQ window 4
// — perfbench's session-arq shape.
func wirePerf(minTime time.Duration, out *[]PerfResult) error {
	const seed = 75
	plane := link.NewCorruptionPlane(seed)
	if err := plane.Add(link.WireFault{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: wireBER}); err != nil {
		return err
	}
	path := link.Path(2, 5, 9)
	for _, bits := range []int{56, 700} {
		frame := make([]byte, bits)
		round := 0
		*out = append(*out, measure(fmt.Sprintf("wire_corrupt/%d", bits), bits, minTime, func() {
			round++
			for _, at := range path {
				flipped, _ := plane.Corrupt(round, at, frame)
				perfSink += flipped
			}
		}))
	}

	const n, payload = 256, 32
	sw, err := core.NewColumnsortSwitchBeta(n, n/2, 0.75)
	if err != nil {
		return err
	}
	// concsim's monitor calibration: convict only links far above the
	// ambient per-frame corruption floor.
	frameBits := payload + link.FrameOverhead(link.CRC16)
	floor := 1 - math.Pow(1-wireBER, float64(frameBits*(len(sw.StageChips())+1)))
	cfg := switchsim.SessionConfig{
		Policy: switchsim.Resend, Load: 0.5, Rounds: 20, PayloadBits: payload, AckDelay: 2, Seed: seed,
		Integrity: &switchsim.IntegrityConfig{
			CRC: link.CRC16, Window: 4, Corruption: plane,
			Monitor: link.MonitorConfig{Threshold: min(0.95, 0.3+4*floor), MinFrames: 32},
		},
	}
	*out = append(*out, measure(fmt.Sprintf("session_integrity/columnsort/%d", n), n, minTime, func() {
		s, err := health.RunIntegritySession(sw, cfg)
		if err != nil {
			panic(err)
		}
		perfSink += s.Delivered
	}))
	return nil
}

// chaosPerf measures one chaos replay of perfbench's chaos-mixed shape
// over a fixed schedule: 200 rounds of a 3-replica Columnsort n=256
// pool at load 0.7 under kills, wire corruption, stalls, surges,
// crashes and scan-latency jitter, journaling a checkpoint of the pool
// after every round, with the pool configured as concpool configures it
// for those flags. One operation is the whole replay.
func chaosPerf(minTime time.Duration, out *[]PerfResult) error {
	const n, seed = 256, 76
	build := func() (core.FaultInjectable, error) {
		sw, err := core.NewColumnsortSwitchBeta(n, n/2, 0.75)
		return sw, err
	}
	cfg := chaos.Config{
		Replicas: 3, Rounds: 200, Load: 0.7, PayloadBits: 8, Seed: seed,
		Kills: 2, Corruptions: 2, Stalls: 3, Surges: 2, Crashes: 3,
		ScanLatencyJitter: true,
		Pool: pool.Config{
			TripThreshold: 1, ProbeAfter: 2, BackoffMax: 32, RetryAfterCap: 8,
			Overload: &overload.Config{},
		},
	}
	probe, err := build()
	if err != nil {
		return err
	}
	events, err := chaos.GenerateSchedule(seed, probe, cfg)
	if err != nil {
		return err
	}
	*out = append(*out, measure(fmt.Sprintf("chaos_replay/%d", n), n, minTime, func() {
		rep, err := chaos.Run(build, events, cfg)
		if err != nil {
			panic(err)
		}
		perfSink += rep.Stats.Delivered
	}))
	return nil
}

// RunPerfSuite measures every hot-path case with the given minimum
// timing window per case and returns the machine-readable report.
func RunPerfSuite(minTime time.Duration) (*PerfReport, error) {
	if minTime <= 0 {
		minTime = 25 * time.Millisecond
	}
	rep := &PerfReport{GoMaxProcs: runtime.GOMAXPROCS(0)}
	if err := routeKernelPerf(minTime, &rep.Results); err != nil {
		return nil, err
	}
	if err := sessionRoundPerf(minTime, &rep.Results); err != nil {
		return nil, err
	}
	if err := poolRoundPerf(minTime, &rep.Results); err != nil {
		return nil, err
	}
	if err := wirePerf(minTime, &rep.Results); err != nil {
		return nil, err
	}
	if err := chaosPerf(minTime, &rep.Results); err != nil {
		return nil, err
	}
	return rep, nil
}

// WritePerf renders the report: a human table to w with the
// faulted-vs-healthy route and session reuse ratios called out.
func WritePerf(w io.Writer, rep *PerfReport) {
	fmt.Fprintf(w, "perf suite (GOMAXPROCS=%d)\n", rep.GoMaxProcs)
	fmt.Fprintf(w, "%-36s %14s %14s %12s\n", "case", "ns/op", "B/op", "allocs/op")
	byName := make(map[string]PerfResult, len(rep.Results))
	for _, r := range rep.Results {
		byName[r.Name] = r
		fmt.Fprintf(w, "%-36s %14.0f %14.0f %12.2f\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Fprintln(w)
	for _, r := range rep.Results {
		var base string
		switch {
		case strings.HasPrefix(r.Name, "route_plane/"):
			base = "route_kernel/" + strings.TrimPrefix(r.Name, "route_plane/")
		case len(r.Name) > len("session_round/") && r.Name[:len("session_round/")] == "session_round/":
			base = "session_legacy/" + r.Name[len("session_round/"):]
		default:
			continue
		}
		if b, ok := byName[base]; ok && r.NsPerOp > 0 {
			fmt.Fprintf(w, "%-36s %6.2fx vs %s\n", r.Name, b.NsPerOp/r.NsPerOp, base)
		}
	}
}

// EncodePerf writes the report as indented JSON.
func EncodePerf(w io.Writer, rep *PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// DecodePerf reads a report written by EncodePerf.
func DecodePerf(r io.Reader) (*PerfReport, error) {
	var rep PerfReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: decoding perf baseline: %w", err)
	}
	return &rep, nil
}

// ComparePerf gates the current report against a committed baseline:
// a case regresses when its ns/op exceeds the baseline by more than
// maxSlowdown (e.g. 0.2 = +20%) or its allocs/op grew beyond rounding
// noise. Cases missing from either side are skipped — the suite may
// gain cases between baselines. Timing gates only fire when both runs
// saw the same GOMAXPROCS, and never for the *_legacy reference cases
// (the allocating before side is GC-noisy and not a protected path);
// allocation gates always fire.
func ComparePerf(baseline, cur *PerfReport, maxSlowdown float64) []string {
	base := make(map[string]PerfResult, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	timingComparable := baseline.GoMaxProcs == cur.GoMaxProcs
	var regressions []string
	for _, r := range cur.Results {
		b, ok := base[r.Name]
		if !ok {
			continue
		}
		timingGated := timingComparable && !strings.Contains(r.Name, "_legacy/")
		if timingGated && b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*(1+maxSlowdown) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f (+%.0f%%, gate +%.0f%%)",
				r.Name, r.NsPerOp, b.NsPerOp, 100*(r.NsPerOp/b.NsPerOp-1), 100*maxSlowdown))
		}
		if r.AllocsPerOp > b.AllocsPerOp+0.5 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.2f allocs/op vs baseline %.2f",
				r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return regressions
}

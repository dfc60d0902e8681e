// Command perfbench is the end-to-end benchmark of the concentrator
// simulator. It runs one named workload as a closed loop from a single
// caller goroutine, checks every simulated outcome from outside, and
// prints its metrics as one JSON object on the last line of standard
// output. Its end-to-end host times are scaled to a reference host speed
// by a calibration kernel run between operations (speed.go). See
// README.md for the workloads and metrics.
//
//	perfbench --workload pool-healthy --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs an untraced and a traced pass of half the time each and reports
// the per-layer metrics, the tracing overhead and a per-package CPU
// split.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

// setupRepeats is how many times a run builds its workload; setup_s is
// the median, scaled to the reference speed by the median of the
// calibrations taken before each build.
const setupRepeats = 7

// jobRounds is the pool workloads' job: a block of consecutive rounds,
// the length of a short CLI run.
const jobRounds = 64

//go:embed digests.json
var digestsJSON []byte

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is one measured closed loop over an instance.
type pass struct {
	attempted, failed int
	firstErr          error
	total             opStats
	opNs              []float64 // host time per op, scaled to the reference speed
	opRounds          []int
	simLatency        []float64
	wallNs            int64
	calibNs           float64       // median calibration time over the loop
	rt0, rt1          runtimeSample // process-wide, around the whole loop
	digest            string
	sp                spans // core spans recorded during the pass (traced only)
}

func (ps *pass) fail(err error) {
	ps.failed++
	if ps.firstErr == nil {
		ps.firstErr = err
	}
}

// lane is one instance under measurement with its pass.
type lane struct {
	inst instance
	sp   *spans // the instance's span sink, nil when untraced
	ps   *pass
	h    hash.Hash
}

// measure runs the lanes' operations back to back, alternating between
// lanes op by op so that host-speed drift hits them alike, for at least
// d and at least w.digestOps operations per lane, hashing the leading
// ones. A calibration runs every calibEveryNs between iterations; the
// runtime counters leave the calibrations out.
func measure(w workload, d time.Duration, lanes ...*lane) {
	rt0 := readRuntime()
	for _, l := range lanes {
		l.ps, l.h = &pass{rt0: rt0}, sha256.New()
		if l.sp != nil {
			*l.sp = spans{} // drop the set-up's spans
		}
	}
	var speed speedLog
	speed.record(0)
	opIter := make([][]int, len(lanes)) // the iteration of each op in opNs
	start := nanotime()
	lastCal := start
	i := 0
	for ; i < w.digestOps || nanotime()-start < int64(d); i++ {
		var tw io.Writer
		for k, l := range lanes {
			if i < w.digestOps {
				tw = l.h
			}
			st, err := l.inst.op(i, tw)
			ps := l.ps
			ps.attempted++
			if err != nil {
				ps.fail(err)
				continue
			}
			ps.total.add(st)
			ps.opNs = append(ps.opNs, float64(st.hostNs))
			ps.opRounds = append(ps.opRounds, st.rounds)
			ps.simLatency = append(ps.simLatency, float64(st.simLatency))
			opIter[k] = append(opIter[k], i)
		}
		if nanotime()-lastCal >= calibEveryNs {
			speed.record(i + 1)
			lastCal = nanotime()
		}
	}
	wall := nanotime() - start
	speed.record(i)
	rt1 := readRuntime()
	rt1.allocObjects -= speed.cost.allocObjects
	rt1.allocBytes -= speed.cost.allocBytes
	rt1.gcCPU -= speed.cost.gcCPU
	rt1.totalCPU -= speed.cost.totalCPU
	for k, l := range lanes {
		ps := l.ps
		ps.wallNs, ps.rt1, ps.calibNs = wall, rt1, median(speed.ns)
		for j, it := range opIter[k] {
			ps.opNs[j] *= speed.scale(it)
		}
		if l.sp != nil {
			ps.sp = *l.sp
		}
		if err := l.inst.end(&ps.total); err != nil {
			ps.fail(err)
		}
		ps.digest = hex.EncodeToString(l.h.Sum(nil))
	}
}

// deliveredPerS is booked-Delivered messages per host second as
// measured; scaledDeliveredPerS is the same at the reference speed.
func (ps *pass) deliveredPerS() float64 {
	return float64(ps.total.delivered) / (float64(ps.total.hostNs) / 1e9)
}

func (ps *pass) scaledDeliveredPerS() float64 {
	ns := 0.0
	for _, x := range ps.opNs {
		ns += x
	}
	return float64(ps.total.delivered) / (ns / 1e9)
}

// roundUs is the host time per simulated round of each op, in µs.
func (ps *pass) roundUs() []float64 {
	out := make([]float64, len(ps.opNs))
	for i, ns := range ps.opNs {
		out[i] = ns / float64(ps.opRounds[i]) / 1e3
	}
	return out
}

// jobMs is the host time per job, in ms: each op on the job workloads,
// each block of jobRounds consecutive rounds on the pool workloads.
func (ps *pass) jobMs(w workload) []float64 {
	if !w.poolRounds {
		out := make([]float64, len(ps.opNs))
		for i, ns := range ps.opNs {
			out[i] = ns / 1e6
		}
		return out
	}
	var out []float64
	for i := 0; i+jobRounds <= len(ps.opNs); i += jobRounds {
		sum := 0.0
		for _, ns := range ps.opNs[i : i+jobRounds] {
			sum += ns
		}
		out = append(out, sum/1e6)
	}
	return out
}

// simLatencyP99 is the simulated p99 delivery latency in rounds: over
// rounds on the pool workloads, the median of the jobs' p99 otherwise.
func (ps *pass) simLatencyP99(w workload) float64 {
	if w.poolRounds {
		return quantile(sorted(ps.simLatency), 0.99)
	}
	return median(ps.simLatency)
}

// roundTailQ is the quantile round_tail_us reports: the p99 over the
// roughly 10 000 rounds of a pool run, the p95 over the 180 to 550 jobs
// of a job run, so that at least ten samples lie beyond it.
func roundTailQ(w workload) float64 {
	if w.poolRounds {
		return 0.99
	}
	return 0.95
}

func endToEnd(w workload, ps *pass, setupS float64) map[string]metric {
	rounds := float64(ps.total.rounds)
	r := sorted(ps.roundUs())
	j := sorted(ps.jobMs(w))
	return map[string]metric{
		"setup_s":                {setupS, "s"},
		"delivered_per_s":        {ps.scaledDeliveredPerS(), "1/s"},
		"round_p50_us":           {quantile(r, 0.5), "us"},
		"round_tail_us":          {quantile(r, roundTailQ(w)), "us"},
		"job_p50_ms":             {quantile(j, 0.5), "ms"},
		"job_p90_ms":             {quantile(j, 0.9), "ms"},
		"allocs_per_round":       {float64(ps.rt1.allocObjects-ps.rt0.allocObjects) / rounds, "count"},
		"alloc_bytes_per_round":  {float64(ps.rt1.allocBytes-ps.rt0.allocBytes) / rounds, "B"},
		"delivered_frac":         {float64(ps.total.delivered) / float64(ps.total.offered), "frac"},
		"sim_latency_p99_rounds": {ps.simLatencyP99(w), "rounds"},
		"success_rate":           {1 - float64(ps.failed)/float64(ps.attempted), "frac"},
	}
}

func perLayer(w workload, plain, traced *pass, cpu map[string]float64) map[string]metric {
	t := traced.total
	rounds := float64(t.rounds)
	sp := traced.sp
	selfNs := float64(t.hostNs - sp.coreNs())
	ops := float64(len(traced.opNs))
	m := map[string]metric{
		"core.route_us_per_round":    {float64(sp.routeNs) / 1e3 / rounds, "us/round"},
		"core.route_calls_per_round": {float64(sp.routeCalls) / rounds, "count/round"},
		"core.plane_route_share":     {ratio(sp.planeRoutes, sp.routeCalls), "frac"},
		"core.useful_route_ratio":    {ratio(t.served, sp.routeCalls), "frac"},
		"health.golden_stage_calls":  {float64(sp.goldenCalls) * 1e3 / rounds, "count/kround"},
		"health.golden_stage_us":     {float64(sp.goldenNs) / rounds, "us/kround"},
		"pool.round_self_us":         {0, "us/round"},
		"pool.failovers_per_1k":      {float64(t.failovers) * 1e3 / rounds, "count/kround"},
		"pool.hedges_per_1k":         {float64(t.hedges) * 1e3 / rounds, "count/kround"},
		"pool.shed_frac":             {ratio(t.shed, t.offered), "frac"},
		"chaos.replay_self_ms":       {0, "ms"},
		"journal.snapshots_written":  {float64(t.snapshots) / ops, "count/job"},
		"journal.bytes_per_round":    {float64(t.journalBytes) / rounds, "B/round"},
		"switchsim.session_self_ms":  {0, "ms"},
		"runtime.gc_cpu_share":       {(traced.rt1.gcCPU - traced.rt0.gcCPU) / (traced.rt1.totalCPU - traced.rt0.totalCPU), "frac"},
		"trace.round_us":             {float64(t.hostNs) / 1e3 / rounds, "us/round"},
		"trace.untraced_round_us":    {float64(plain.total.hostNs) / 1e3 / float64(plain.total.rounds), "us/round"},
		"trace.overhead_frac":        {1 - traced.deliveredPerS()/plain.deliveredPerS(), "frac"},
	}
	switch w.name {
	case "chaos-mixed":
		m["chaos.replay_self_ms"] = metric{selfNs / 1e6 / ops, "ms"}
	case "session-arq":
		m["switchsim.session_self_ms"] = metric{selfNs / 1e6 / ops, "ms"}
	default:
		m["pool.round_self_us"] = metric{selfNs / 1e3 / rounds, "us/round"}
	}
	for pkg, share := range cpu {
		m["cpu_share."+pkg] = metric{share, "frac"}
	}
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkDigest compares a pass's transcript digest with the one recorded
// for this workload and seed, if any.
func checkDigest(w workload, seed int64, digest string) error {
	var recorded map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	want, ok := recorded[w.name][strconv.FormatInt(seed, 10)]
	if ok && want != digest {
		return fmt.Errorf("transcript digest %s, recorded %s", digest, want)
	}
	return nil
}

func run(w workload, seed int64, d time.Duration, traced bool, outDir string) (*result, error) {
	res := &result{Correct: true}
	tally := func(ps *pass) {
		res.Attempted += ps.attempted
		res.Failed += ps.failed
		if ps.firstErr != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed; first: %v\n", w.name, ps.failed, ps.attempted, ps.firstErr)
		}
		if err := checkDigest(w, seed, ps.digest); err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.name, seed, err)
		}
	}

	if !traced {
		var inst instance
		setup := make([]float64, setupRepeats)
		calib := make([]float64, setupRepeats)
		for k := range setup {
			// Every build starts from the heap the calibration collected,
			// so no build pays for the garbage of the one before it.
			inst = nil
			calib[k] = calibrate()
			start := cputime()
			var err error
			if inst, err = w.setup(seed, nil); err != nil {
				return nil, fmt.Errorf("%s setup: %w", w.name, err)
			}
			setup[k] = float64(cputime()-start) / 1e9
		}
		runtime.GC()
		l := &lane{inst: inst}
		measure(w, d, l)
		ps := l.ps
		tally(ps)
		res.Metrics = endToEnd(w, ps, median(setup)*calibRefNs/median(calib))
		fmt.Printf("%s seed %d: %d ops (%d rounds) in %.1f s, GOMAXPROCS %d, calibration median %.2f ms (reference %.2f ms), transcript digest %s\n",
			w.name, seed, ps.attempted, ps.total.rounds, float64(ps.wallNs)/1e9, runtime.GOMAXPROCS(0), ps.calibNs/1e6, calibRefNs/1e6, ps.digest)
		return res, nil
	}

	plainInst, err := w.setup(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	sp := &spans{}
	tracedInst, err := w.setup(seed, sp)
	if err != nil {
		return nil, fmt.Errorf("%s traced setup: %w", w.name, err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	profile := filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d.pprof", w.name, seed))
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	plain, tl := &lane{inst: plainInst}, &lane{inst: tracedInst, sp: sp}
	measure(w, d, plain, tl)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	tally(plain.ps)
	tally(tl.ps)
	if plain.ps.digest != tl.ps.digest {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "%s: traced transcript %s differs from untraced %s\n", w.name, tl.ps.digest, plain.ps.digest)
	}
	cpu, err := cpuShares(profile)
	if err != nil {
		return nil, err
	}
	res.Metrics = perLayer(w, plain.ps, tl.ps, cpu)
	fmt.Printf("%s seed %d: %d untraced and %d traced ops alternating, transcript digest %s, profile %s\n",
		w.name, seed, plain.ps.attempted, tl.ps.attempted, tl.ps.digest, profile)
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload: pool-healthy | pool-degraded | chaos-mixed | session-arq")
	seed := flag.Int64("seed", 1, "workload seed; inputs are generated from it before timing starts")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds the measured loop runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for CPU profiles")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

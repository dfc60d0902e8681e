package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var epoch = time.Now()

// nanotime is a monotonic wall-clock reading in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// cputime is the process's CPU time, user plus system over every
// thread, in nanoseconds. Operations and set-up are timed with it: on a
// shared virtual machine the wall clock also counts the time the
// hypervisor and other tenants take, which varies from run to run, while
// CPU time counts the work done, GC included.
func cputime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // EFAULT or EINVAL only: impossible with these arguments
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs must be sorted and non-empty.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// runtimeSample is a reading of the runtime counters a pass reports.
type runtimeSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// cpuPackages are the layers reported as cpu_share.<name>: the
// simulator's packages, which have no public seam inside a round, plus
// the runtime and standard-library packages that dominate some
// workloads. Everything else is "other".
var cpuPackages = []string{
	"bitvec", "hyper", "mesh", "core", "nearsort", "switchsim", "link",
	"timing", "overload", "journal", "partition", "byzantine", "health",
	"pool", "chaos", "runtime", "gob", "reflect", "rand", "sort", "other",
}

// stdPackages maps the runtime and standard-library function prefixes
// to their cpuPackages entries.
var stdPackages = []struct{ prefix, name string }{
	{"runtime.", "runtime"}, {"internal/runtime/", "runtime"}, {"runtime/internal/", "runtime"},
	{"encoding/gob.", "gob"}, {"reflect.", "reflect"}, {"math/rand.", "rand"}, {"sort.", "sort"},
}

// packageOf maps a profiled function name to its cpuPackages entry.
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "concentrators/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, p := range cpuPackages {
			if p == pkg {
				return p
			}
		}
		return "other"
	}
	for _, p := range stdPackages {
		if strings.HasPrefix(fn, p.prefix) {
			return p.name
		}
	}
	return "other"
}

// cpuShares aggregates a CPU profile's flat samples by package with the
// toolchain's pprof and returns each cpuPackages entry's share of all
// samples.
func cpuShares(profile string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-symbolize=none", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	shares := make(map[string]float64, len(cpuPackages))
	for _, p := range cpuPackages {
		shares[p] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		// flat flat% sum% cum cum% name
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[packageOf(strings.Join(f[5:], " "))] += pct / 100
	}
	return shares, sc.Err()
}

package main

import (
	"runtime"
	"slices"
	"sort"
	"syscall"
	"unsafe"
)

// Host speed on a shared virtual machine drifts by 10-35% over minutes
// as other tenants contend for the cores, caches and memory, and CPU
// time drifts with it. The end-to-end host times are therefore scaled
// to a fixed reference speed: a calibration kernel of fixed work runs
// between operations, and each operation's time is multiplied by
// calibRefNs / (the calibration time measured around it).

// calibRefNs is the calibration kernel's typical thread CPU time on the
// reference machine (2-vCPU shared VM, Intel Xeon, go1.24.0), so the
// scaled times read as that machine's at its typical speed.
const calibRefNs = 4.0e6

// calibEveryNs is the wall time between calibrations; a calibration
// and the collection before it take about 5 ms, 5% of a run.
const calibEveryNs = 100e6

// calibWindow is how many calibrations on each side of an operation
// enter the median that scales it.
const calibWindow = 2

// calibBuf is the calibration kernel's 4 MiB working set; calibKeys is
// what it sorts.
var (
	calibBuf  = make([]uint64, 1<<19)
	calibKeys = make([]uint64, 1<<14)
	calibSink uint64
)

// calibrate runs the calibration kernel and returns its thread CPU time
// in nanoseconds: it sorts 16 Ki pseudo-random keys, then updates and
// reads 128 Ki pseudo-random places in calibBuf. It allocates nothing,
// and it first collects the heap and warms calibBuf, so no garbage
// collection runs beside it and the workload's heap does not decide
// what is in the cache. The thread clock leaves out the
// other threads. What remains is the host's speed.
func calibrate() float64 {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	warm := uint64(0)
	for _, v := range calibBuf {
		warm += v
	}
	start := threadCPUTime()
	x := uint64(0x9e3779b97f4a7c15)
	for i := range calibKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibKeys[i] = x
	}
	slices.Sort(calibKeys)
	s, j := uint64(0), uint64(1)
	for i := 0; i < 1<<17; i++ {
		j = j*6364136223846793005 + 1442695040888963407
		k := (j >> 40) & (1<<19 - 1)
		calibBuf[k] += j
		s += calibBuf[(k*7)&(1<<19-1)]
	}
	ns := threadCPUTime() - start
	calibSink += s + warm
	return float64(ns)
}

// threadCPUTime is the calling thread's CPU time in nanoseconds.
func threadCPUTime() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // EINVAL or EFAULT only: impossible with these arguments
	}
	return ts.Nano()
}

// speedLog is the calibrations taken during a measured loop, each with
// the number of loop iterations completed before it.
type speedLog struct {
	after []int
	ns    []float64
	// cost is what the calibrations and their collections added to the
	// runtime counters, so the loop's allocation and GC figures can
	// leave it out.
	cost runtimeSample
}

func (s *speedLog) record(iter int) {
	before := readRuntime()
	s.after = append(s.after, iter)
	s.ns = append(s.ns, calibrate())
	after := readRuntime()
	s.cost.allocObjects += after.allocObjects - before.allocObjects
	s.cost.allocBytes += after.allocBytes - before.allocBytes
	s.cost.gcCPU += after.gcCPU - before.gcCPU
	s.cost.totalCPU += after.totalCPU - before.totalCPU
}

// scale returns the factor that brings a time measured during loop
// iteration iter to the reference speed: calibRefNs over the median of
// the calibrations nearest to it. The log must hold a calibration taken
// before the loop.
func (s *speedLog) scale(iter int) float64 {
	c := sort.SearchInts(s.after, iter+1) - 1 // the last calibration before iter
	lo, hi := max(0, c-calibWindow+1), min(len(s.ns), c+calibWindow+1)
	return calibRefNs / median(s.ns[lo:hi])
}

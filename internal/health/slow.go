// Slow-replica conviction: relative-percentile outlier detection over
// per-replica latency windows. A gray-failed replica routes correctly
// — BIST scans and delivery-guarantee checks see nothing — but 10–100×
// slower than its peers. The detector convicts on *relative* evidence
// only (a replica's recent latency quantile persistently above the
// median of its peers by a calibrated factor), never on absolute
// thresholds: the pool has no ground truth for "fast", only for
// "slower than everyone else doing the same work".
package health

import (
	"fmt"
	"math"
	"sort"
)

// The detector's calibration.
const (
	// slowWindowLen is the per-replica latency window: the number of
	// recent round latencies the quantile is computed over.
	slowWindowLen = 32
	// slowQuantile is the per-replica latency quantile compared against
	// the peer median (the tail the detector watches).
	slowQuantile = 0.9
	// SlowFactor is the conviction multiplier: a replica's quantile
	// above SlowFactor × the peer-median quantile convicts (after
	// slowPersistence sweeps). The pool's canary probe holds a
	// re-admitted replica to the same line.
	SlowFactor = 3
	// slowPersistence is the number of consecutive over-the-line sweeps
	// required to convict, so a single GC-like pause window never trips
	// the breaker.
	slowPersistence = 3
	// slowMinSamples is the minimum window occupancy before a replica's
	// quantile is trusted — for the suspect and for the peers it is
	// judged against.
	slowMinSamples = 8
)

// slowWindow is one replica's ring of recent latencies.
type slowWindow struct {
	ring   []int
	filled int
	next   int
	streak int // consecutive over-the-line sweeps
}

// SlowDetector watches per-replica round latencies and convicts gray
// (functionally correct but persistently slow) replicas by relative
// percentile. Not safe for concurrent use; the pool serializes access
// under its own lock.
type SlowDetector struct {
	windows []slowWindow
	// Scratch, so a sweep allocates nothing: sorted holds the window
	// being sorted, quants every replica's quantile (−1 below
	// slowMinSamples), and peers the quantiles a median is taken over.
	sorted, quants, peers []int
}

// NewSlowDetector builds a detector over the given replica count.
func NewSlowDetector(replicas int) (*SlowDetector, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("health: slow detector needs ≥ 1 replica, got %d", replicas)
	}
	d := &SlowDetector{windows: make([]slowWindow, replicas), quants: make([]int, replicas)}
	for i := range d.windows {
		d.windows[i].ring = make([]int, slowWindowLen)
	}
	return d, nil
}

// Observe records one round latency for a replica (negative latencies
// clamp to 0; out-of-range replicas are ignored).
func (d *SlowDetector) Observe(replica, latency int) {
	if replica < 0 || replica >= len(d.windows) {
		return
	}
	if latency < 0 {
		latency = 0
	}
	w := &d.windows[replica]
	w.ring[w.next] = latency
	w.next = (w.next + 1) % len(w.ring)
	if w.filled < len(w.ring) {
		w.filled++
	}
}

// Quantile returns replica's windowed latency quantile; ok is false
// until the window holds slowMinSamples.
func (d *SlowDetector) Quantile(replica int) (lat int, ok bool) {
	if replica < 0 || replica >= len(d.windows) {
		return 0, false
	}
	w := &d.windows[replica]
	if w.filled < slowMinSamples {
		return 0, false
	}
	d.sorted = append(d.sorted[:0], w.ring[:w.filled]...)
	sort.Ints(d.sorted)
	return d.sorted[int(math.Ceil(slowQuantile*float64(w.filled)))-1], true
}

// quantiles fills d.quants with every replica's windowed quantile, −1
// for a replica whose window holds fewer than slowMinSamples.
func (d *SlowDetector) quantiles() []int {
	for i := range d.windows {
		d.quants[i] = -1
		if q, ok := d.Quantile(i); ok {
			d.quants[i] = q
		}
	}
	return d.quants
}

// PeerMedian returns the median windowed quantile across every replica
// except the given one; ok is false unless at least one peer has
// slowMinSamples.
func (d *SlowDetector) PeerMedian(replica int) (lat float64, ok bool) {
	return d.peerMedian(d.quantiles(), replica)
}

// peerMedian is PeerMedian over the quantiles qs.
func (d *SlowDetector) peerMedian(qs []int, replica int) (lat float64, ok bool) {
	d.peers = d.peers[:0]
	for i, q := range qs {
		if i != replica && q >= 0 {
			d.peers = append(d.peers, q)
		}
	}
	if len(d.peers) == 0 {
		return 0, false
	}
	sort.Ints(d.peers)
	mid := len(d.peers) / 2
	if len(d.peers)%2 == 1 {
		return float64(d.peers[mid]), true
	}
	return float64(d.peers[mid-1]+d.peers[mid]) / 2, true
}

// overLine reports whether replica's quantile in qs is above the
// conviction line (SlowFactor × peer median, floored at the peer median
// plus one round so a pool of equally fast replicas never convicts on
// quantization noise).
func (d *SlowDetector) overLine(qs []int, replica int) bool {
	if qs[replica] < 0 {
		return false
	}
	med, ok := d.peerMedian(qs, replica)
	if !ok {
		return false
	}
	line := math.Max(SlowFactor*med, med+1)
	return float64(qs[replica]) > line
}

// Sweep advances every replica's persistence streak and returns the
// replicas newly crossing slowPersistence consecutive over-the-line sweeps
// — the convictions. Each window is sorted once per sweep. A convicted
// replica's window is left intact so the pool's canary probe can
// compare against it; call Reset once the replica is re-admitted.
func (d *SlowDetector) Sweep() (convicted []int) {
	qs := d.quantiles()
	for i := range d.windows {
		w := &d.windows[i]
		if !d.overLine(qs, i) {
			w.streak = 0
			continue
		}
		w.streak++
		if w.streak == slowPersistence {
			convicted = append(convicted, i)
		}
	}
	return convicted
}

// Reset clears a replica's window and streak (fresh trial after repair
// or re-admission: its old tail died with the fault).
func (d *SlowDetector) Reset(replica int) {
	if replica < 0 || replica >= len(d.windows) {
		return
	}
	w := &d.windows[replica]
	w.filled, w.next, w.streak = 0, 0, 0
}

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

// SlowConfig calibrates a SlowDetector.
type SlowConfig struct {
	// Window is the per-replica latency window: the number of recent
	// round latencies the quantile is computed over. 0 means 32.
	Window int
	// Quantile is the per-replica latency quantile compared against the
	// peer median (the tail the detector watches). 0 means 0.9.
	Quantile float64
	// Factor is the conviction multiplier: replica quantile > Factor ×
	// peer-median quantile convicts (after Persistence sweeps). 0 means
	// 3.
	Factor float64
	// Persistence is the number of consecutive over-the-line sweeps
	// required to convict, so a single GC-like pause window never trips
	// the breaker. 0 means 3.
	Persistence int
	// MinSamples is the minimum window occupancy before a replica's
	// quantile is trusted — for the suspect and for the peers it is
	// judged against. 0 means 8.
	MinSamples int
}

func (c SlowConfig) withDefaults() SlowConfig {
	if c.Window == 0 {
		c.Window = 32
	}
	if c.Quantile == 0 {
		c.Quantile = 0.9
	}
	if c.Factor == 0 {
		c.Factor = 3
	}
	if c.Persistence == 0 {
		c.Persistence = 3
	}
	if c.MinSamples == 0 {
		c.MinSamples = 8
	}
	return c
}

// Validate rejects malformed detector configurations.
func (c SlowConfig) Validate() error {
	eff := c.withDefaults()
	switch {
	case c.Window < 0:
		return fmt.Errorf("health: negative slow-detector window %d", c.Window)
	case math.IsNaN(c.Quantile) || c.Quantile < 0 || c.Quantile > 1:
		return fmt.Errorf("health: slow-detector quantile %v outside [0,1]", c.Quantile)
	case math.IsNaN(c.Factor) || c.Factor < 0:
		return fmt.Errorf("health: slow-detector factor %v must be positive", c.Factor)
	case c.Factor != 0 && eff.Factor <= 1:
		return fmt.Errorf("health: slow-detector factor %v must exceed 1 (anything slower would convict healthy jitter)", c.Factor)
	case c.Persistence < 0:
		return fmt.Errorf("health: negative slow-detector persistence %d", c.Persistence)
	case c.MinSamples < 0:
		return fmt.Errorf("health: negative slow-detector min samples %d", c.MinSamples)
	case eff.MinSamples > eff.Window:
		return fmt.Errorf("health: slow-detector MinSamples %d exceeds window %d", eff.MinSamples, eff.Window)
	}
	return nil
}

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
	cfg     SlowConfig
	windows []slowWindow
	// Scratch, so a sweep allocates nothing: sorted holds the window
	// being sorted, quants every replica's quantile (−1 below
	// MinSamples), and peers the quantiles a median is taken over.
	sorted, quants, peers []int
}

// NewSlowDetector builds a detector over the given replica count.
func NewSlowDetector(cfg SlowConfig, replicas int) (*SlowDetector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if replicas < 1 {
		return nil, fmt.Errorf("health: slow detector needs ≥ 1 replica, got %d", replicas)
	}
	d := &SlowDetector{cfg: cfg.withDefaults(), windows: make([]slowWindow, replicas), quants: make([]int, replicas)}
	for i := range d.windows {
		d.windows[i].ring = make([]int, d.cfg.Window)
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
// until the window holds MinSamples.
func (d *SlowDetector) Quantile(replica int) (lat int, ok bool) {
	if replica < 0 || replica >= len(d.windows) {
		return 0, false
	}
	w := &d.windows[replica]
	if w.filled < d.cfg.MinSamples {
		return 0, false
	}
	d.sorted = append(d.sorted[:0], w.ring[:w.filled]...)
	sort.Ints(d.sorted)
	rank := int(math.Ceil(d.cfg.Quantile * float64(w.filled)))
	if rank < 1 {
		rank = 1
	}
	return d.sorted[rank-1], true
}

// quantiles fills d.quants with every replica's windowed quantile, −1
// for a replica whose window holds fewer than MinSamples.
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
// MinSamples.
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
// conviction line (Factor × peer median, floored at the peer median
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
	line := math.Max(d.cfg.Factor*med, med+1)
	return float64(qs[replica]) > line
}

// Sweep advances every replica's persistence streak and returns the
// replicas newly crossing Persistence consecutive over-the-line sweeps
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
		if w.streak == d.cfg.Persistence {
			convicted = append(convicted, i)
		}
	}
	return convicted
}

// Factor returns the calibrated conviction multiplier.
func (d *SlowDetector) Factor() float64 { return d.cfg.Factor }

// Reset clears a replica's window and streak (fresh trial after repair
// or re-admission: its old tail died with the fault).
func (d *SlowDetector) Reset(replica int) {
	if replica < 0 || replica >= len(d.windows) {
		return
	}
	w := &d.windows[replica]
	w.filled, w.next, w.streak = 0, 0, 0
}

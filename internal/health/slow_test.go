package health

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestSlowConfigValidate(t *testing.T) {
	good := []SlowConfig{{}, {Window: 16, Quantile: 0.95, Factor: 2, Persistence: 5, MinSamples: 4}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", c, err)
		}
	}
	bad := []SlowConfig{
		{Window: -1},
		{Quantile: math.NaN()},
		{Quantile: -0.1},
		{Quantile: 1.5},
		{Factor: math.NaN()},
		{Factor: -1},
		{Factor: 0.5}, // would convict healthy jitter
		{Persistence: -1},
		{MinSamples: -1},
		{Window: 4, MinSamples: 8},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config %+v accepted", c)
		}
		if _, err := NewSlowDetector(c, 2); err == nil {
			t.Errorf("NewSlowDetector accepted invalid config %+v", c)
		}
	}
	if _, err := NewSlowDetector(SlowConfig{}, 0); err == nil {
		t.Error("detector accepted zero replicas")
	}
}

// A persistent relative outlier is convicted exactly once — after
// Persistence consecutive sweeps — while its equally loaded peers
// never are. No absolute thresholds are involved: both scenarios use
// the same fast/slow ratio at different absolute scales.
func TestSlowDetectorConvictsRelativeOutlier(t *testing.T) {
	for _, scale := range []int{1, 50} {
		d, err := NewSlowDetector(SlowConfig{MinSamples: 4, Persistence: 3}, 3)
		if err != nil {
			t.Fatal(err)
		}
		convictedAt := -1
		for sweep := 0; sweep < 10; sweep++ {
			d.Observe(0, 1*scale)
			d.Observe(1, 1*scale)
			d.Observe(2, 10*scale) // 10× its peers, at any scale
			if got := d.Sweep(); len(got) > 0 {
				if len(got) != 1 || got[0] != 2 {
					t.Fatalf("scale %d: convicted %v, want [2]", scale, got)
				}
				if convictedAt >= 0 {
					t.Fatalf("scale %d: replica 2 convicted twice", scale)
				}
				convictedAt = sweep
			}
		}
		if convictedAt < 0 {
			t.Fatalf("scale %d: persistent 10× outlier never convicted", scale)
		}
		// MinSamples=4 gates the first possible over-line sweep;
		// persistence demands 3 consecutive ones after that.
		if convictedAt < 5 {
			t.Fatalf("scale %d: convicted at sweep %d, before persistence could have elapsed", scale, convictedAt)
		}
	}
}

// A single short GC-like pause against warm windows must never
// convict: the pause's few samples stay inside the watched quantile's
// tail allowance (1−Quantile of the window), so the replica never even
// goes over the line — persistence is the second guard, not the first.
func TestSlowDetectorIgnoresShortPause(t *testing.T) {
	d, err := NewSlowDetector(SlowConfig{}, 2) // Window 32, Quantile 0.9: 3 pause samples tolerated
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 120; sweep++ {
		d.Observe(0, 1)
		lat := 1
		if sweep >= 60 && sweep < 63 { // one 3-round pause window
			lat = 30
		}
		d.Observe(1, lat)
		if got := d.Sweep(); len(got) > 0 {
			t.Fatalf("sweep %d: pause convicted %v", sweep, got)
		}
	}
}

// Equally fast replicas never convict each other, even with integer
// jitter: the conviction line is floored at the peer median + 1.
func TestSlowDetectorNoConvictionWhenUniform(t *testing.T) {
	d, err := NewSlowDetector(SlowConfig{MinSamples: 2, Persistence: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 50; sweep++ {
		for r := 0; r < 4; r++ {
			d.Observe(r, 1+(sweep+r)%2)
		}
		if got := d.Sweep(); len(got) > 0 {
			t.Fatalf("uniform pool convicted %v", got)
		}
	}
}

func TestSlowDetectorResetGivesFreshTrial(t *testing.T) {
	d, err := NewSlowDetector(SlowConfig{MinSamples: 2, Persistence: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	convict := func() bool {
		for sweep := 0; sweep < 10; sweep++ {
			d.Observe(0, 1)
			d.Observe(1, 20)
			if got := d.Sweep(); len(got) > 0 {
				return true
			}
		}
		return false
	}
	if !convict() {
		t.Fatal("outlier never convicted")
	}
	d.Reset(1)
	if _, ok := d.Quantile(1); ok {
		t.Fatal("reset window still produces a quantile")
	}
	if _, ok := d.PeerMedian(0); ok {
		t.Fatal("peer median survives with the only peer reset")
	}
	// The repaired replica comes back fast: no re-conviction.
	for sweep := 0; sweep < 20; sweep++ {
		d.Observe(0, 1)
		d.Observe(1, 1)
		if got := d.Sweep(); len(got) > 0 {
			t.Fatalf("repaired replica re-convicted: %v", got)
		}
	}
}

// refQuantile, refPeerMedian and refOverLine are the detector's
// original definitions, which copy and sort a window for every quantile
// they read: the reference Sweep's one-sort-per-window form must match.
func refQuantile(d *SlowDetector, replica int) (int, bool) {
	w := &d.windows[replica]
	if w.filled < d.cfg.MinSamples {
		return 0, false
	}
	lats := append([]int(nil), w.ring[:w.filled]...)
	sort.Ints(lats)
	rank := int(math.Ceil(d.cfg.Quantile * float64(len(lats))))
	if rank < 1 {
		rank = 1
	}
	return lats[rank-1], true
}

func refPeerMedian(d *SlowDetector, replica int) (float64, bool) {
	var peers []int
	for i := range d.windows {
		if i == replica {
			continue
		}
		if q, ok := refQuantile(d, i); ok {
			peers = append(peers, q)
		}
	}
	if len(peers) == 0 {
		return 0, false
	}
	sort.Ints(peers)
	mid := len(peers) / 2
	if len(peers)%2 == 1 {
		return float64(peers[mid]), true
	}
	return float64(peers[mid-1]+peers[mid]) / 2, true
}

func refOverLine(d *SlowDetector, replica int) bool {
	q, ok := refQuantile(d, replica)
	if !ok {
		return false
	}
	med, ok := refPeerMedian(d, replica)
	if !ok {
		return false
	}
	return float64(q) > math.Max(d.cfg.Factor*med, med+1)
}

// Sweep, Quantile and PeerMedian give the reference's answers on random
// windows: 1–5 replicas filling at ragged rates, so windows sit on both
// sides of MinSamples, with occasional resets and a slow replica.
func TestSlowSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		replicas := 1 + rng.Intn(5)
		window := 2 + rng.Intn(15)
		cfg := SlowConfig{
			Window:      window,
			MinSamples:  1 + rng.Intn(window),
			Persistence: 1 + rng.Intn(3),
			Quantile:    []float64{0, 0.5, 0.75, 1}[rng.Intn(4)],
			Factor:      []float64{0, 1.5, 3}[rng.Intn(3)],
		}
		d, err := NewSlowDetector(cfg, replicas)
		if err != nil {
			t.Fatal(err)
		}
		slow := rng.Intn(replicas)
		streaks := make([]int, replicas)
		for sweep := 0; sweep < 16; sweep++ {
			for i := 0; i < replicas; i++ {
				for k := rng.Intn(3); k > 0; k-- {
					lat := 1 + rng.Intn(3)
					if i == slow {
						lat *= 1 + rng.Intn(12)
					}
					d.Observe(i, lat)
				}
			}
			if rng.Intn(8) == 0 {
				i := rng.Intn(replicas)
				d.Reset(i)
				streaks[i] = 0
			}
			for i := 0; i < replicas; i++ {
				q, ok := d.Quantile(i)
				rq, rok := refQuantile(d, i)
				if q != rq || ok != rok {
					t.Fatalf("trial %d sweep %d: Quantile(%d) = %d,%v, reference %d,%v", trial, sweep, i, q, ok, rq, rok)
				}
				m, ok := d.PeerMedian(i)
				rm, rok := refPeerMedian(d, i)
				if m != rm || ok != rok {
					t.Fatalf("trial %d sweep %d: PeerMedian(%d) = %v,%v, reference %v,%v", trial, sweep, i, m, ok, rm, rok)
				}
			}
			var want []int
			for i := range streaks {
				if !refOverLine(d, i) {
					streaks[i] = 0
					continue
				}
				streaks[i]++
				if streaks[i] == d.cfg.Persistence {
					want = append(want, i)
				}
			}
			if got := d.Sweep(); !slices.Equal(got, want) {
				t.Fatalf("trial %d sweep %d (%+v, %d replicas): Sweep convicted %v, reference %v", trial, sweep, cfg, replicas, got, want)
			}
			for i, w := range d.windows {
				if w.streak != streaks[i] {
					t.Fatalf("trial %d sweep %d: replica %d streak %d, reference %d", trial, sweep, i, w.streak, streaks[i])
				}
			}
		}
	}
}

// A sweep over full windows allocates nothing, with peers to compare
// against and without, and neither does the canary's PeerMedian.
func TestSlowSweepAllocatesNothing(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		d, err := NewSlowDetector(SlowConfig{}, replicas)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 32; k++ {
			for i := 0; i < replicas; i++ {
				d.Observe(i, (1+k%3)*(1+9*i)) // replicas 1 and 2 run 10× and 19× slower
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			d.Sweep()
			d.PeerMedian(0)
		}); allocs != 0 {
			t.Errorf("%d replicas: %v allocs per sweep, want 0", replicas, allocs)
		}
	}
}

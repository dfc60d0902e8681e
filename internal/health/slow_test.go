package health

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestSlowDetectorNeedsAReplica(t *testing.T) {
	if _, err := NewSlowDetector(0); err == nil {
		t.Error("detector accepted zero replicas")
	}
}

// A persistent relative outlier is convicted exactly once — after
// slowPersistence consecutive sweeps — while its equally loaded peers
// never are. No absolute thresholds are involved: both scenarios use
// the same fast/slow ratio at different absolute scales.
func TestSlowDetectorConvictsRelativeOutlier(t *testing.T) {
	for _, scale := range []int{1, 50} {
		d, err := NewSlowDetector(3)
		if err != nil {
			t.Fatal(err)
		}
		convictedAt := -1
		for sweep := 0; sweep < 20; sweep++ {
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
		// slowMinSamples gates the first over-line sweep; persistence
		// demands slowPersistence consecutive ones from there.
		if want := slowMinSamples + slowPersistence - 2; convictedAt != want {
			t.Fatalf("scale %d: convicted at sweep %d, want %d", scale, convictedAt, want)
		}
	}
}

// A single short GC-like pause against warm windows must never
// convict: the pause's few samples stay inside the watched quantile's
// tail allowance (1−Quantile of the window), so the replica never even
// goes over the line — persistence is the second guard, not the first.
func TestSlowDetectorIgnoresShortPause(t *testing.T) {
	d, err := NewSlowDetector(2) // window 32, quantile 0.9: 3 pause samples tolerated
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
	d, err := NewSlowDetector(4)
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
	d, err := NewSlowDetector(2)
	if err != nil {
		t.Fatal(err)
	}
	convict := func() bool {
		for sweep := 0; sweep < 20; sweep++ {
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
	if w.filled < slowMinSamples {
		return 0, false
	}
	lats := append([]int(nil), w.ring[:w.filled]...)
	sort.Ints(lats)
	rank := int(math.Ceil(slowQuantile * float64(len(lats))))
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
	return float64(q) > math.Max(SlowFactor*med, med+1)
}

// Sweep, Quantile and PeerMedian give the reference's answers on random
// windows: 1–5 replicas filling at ragged rates, so windows sit on both
// sides of slowMinSamples and wrap, with occasional resets and a slow
// replica.
func TestSlowSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		replicas := 1 + rng.Intn(5)
		d, err := NewSlowDetector(replicas)
		if err != nil {
			t.Fatal(err)
		}
		slow := rng.Intn(replicas)
		streaks := make([]int, replicas)
		for sweep := 0; sweep < 48; sweep++ {
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
				if streaks[i] == slowPersistence {
					want = append(want, i)
				}
			}
			if got := d.Sweep(); !slices.Equal(got, want) {
				t.Fatalf("trial %d sweep %d (%d replicas): Sweep convicted %v, reference %v", trial, sweep, replicas, got, want)
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
		d, err := NewSlowDetector(replicas)
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

// Package nearsort implements the paper's §3: the relationship between
// ε-nearsorting and partial concentration.
//
// Lemma 1 characterizes an ε-nearsorted 0/1 sequence structurally
// (clean 1s, dirty window ≤ 2ε, clean 0s). Lemma 2 — the key lemma —
// says any switch that ε-nearsorts its valid bits, restricted to its
// first m outputs, is an (n, m, 1 − ε/m) partial concentrator switch.
// This package provides checkable forms of both, the load-ratio
// arithmetic, and the Figure 2 counterexample showing the converse of
// Lemma 2 fails.
package nearsort

import (
	"fmt"

	"concentrators/internal/bitvec"
)

// Alpha returns the Lemma 2 load ratio α = 1 − ε/m.
func Alpha(eps, m int) float64 {
	if m <= 0 {
		panic(fmt.Sprintf("nearsort: m = %d must be positive", m))
	}
	return 1 - float64(eps)/float64(m)
}

// Threshold returns ⌊αm⌋ = m − ε, the guaranteed routing threshold of
// an (n, m, 1−ε/m) partial concentrator (clamped at 0).
func Threshold(eps, m int) int {
	t := m - eps
	if t < 0 {
		t = 0
	}
	return t
}

// MinRouted returns the number of messages an (n, m, 1−ε/m) partial
// concentrator switch must route when k messages enter: k itself when
// k ≤ αm, and at least αm otherwise (§1).
func MinRouted(k, eps, m int) int {
	t := Threshold(eps, m)
	if k <= t {
		return k
	}
	return t
}

// CheckLemma1 verifies the structural characterization of Lemma 1 on a
// vector with respect to a claimed ε: the sequence must be a clean run
// of ≥ k−ε ones, then a dirty window of ≤ 2ε bits, then a clean run of
// ≥ n−k−ε zeros. It returns nil iff the structure holds.
func CheckLemma1(v *bitvec.Vector, eps int) error {
	k := v.Count()
	lo, hi := v.DirtyWindow()
	if lo < k-eps {
		return fmt.Errorf("nearsort: clean 1-prefix has %d ones, Lemma 1 requires ≥ k−ε = %d", lo, k-eps)
	}
	if hi-lo > 2*eps {
		return fmt.Errorf("nearsort: dirty window length %d exceeds 2ε = %d", hi-lo, 2*eps)
	}
	if tail := v.Len() - hi; tail < v.Len()-k-eps {
		return fmt.Errorf("nearsort: clean 0-suffix has %d zeros, Lemma 1 requires ≥ n−k−ε = %d",
			tail, v.Len()-k-eps)
	}
	return nil
}

// IsNearsorted reports whether v is ε-nearsorted.
func IsNearsorted(v *bitvec.Vector, eps int) bool {
	return v.Nearsortedness() <= eps
}

// CheckPartialConcentration verifies the §1 definition of an
// (n, m, 1−ε/m) partial concentrator on one input instance. valid is
// the input valid-bit pattern; out[i] is the output wire (< m) to which
// input i's path was established, or −1. It checks:
//
//   - paths exist only for valid inputs, land in [0, m), and are
//     disjoint;
//   - if k ≤ m−ε, every valid input is routed;
//   - if k > m−ε, at least m−ε outputs carry messages.
func CheckPartialConcentration(valid *bitvec.Vector, out []int, m, eps int) error {
	if len(out) != valid.Len() {
		return fmt.Errorf("nearsort: out has %d entries for %d inputs", len(out), valid.Len())
	}
	// The taken outputs, one bit each: on the stack up to 4096 outputs.
	var stack [64]uint64
	used := stack[:]
	if m > 64*len(stack) {
		used = make([]uint64, (m+63)/64)
	}
	routed := 0
	for i, o := range out {
		if o == -1 {
			continue
		}
		if !valid.Get(i) {
			return fmt.Errorf("nearsort: invalid input %d was routed to output %d", i, o)
		}
		if o < 0 || o >= m {
			return fmt.Errorf("nearsort: input %d routed to out-of-range output %d", i, o)
		}
		bit := uint64(1) << uint(o&63)
		if used[o>>6]&bit != 0 {
			return fmt.Errorf("nearsort: output %d carries two messages", o)
		}
		used[o>>6] |= bit
		routed++
	}
	k := valid.Count()
	need := MinRouted(k, eps, m)
	if routed < need {
		return fmt.Errorf("nearsort: routed %d of %d messages, load ratio requires ≥ %d", routed, k, need)
	}
	return nil
}

// Lemma2Route derives, per the key lemma, the partial-concentrator
// routing from an ε-nearsorting permutation. perm[i] is the position to
// which the (stable) nearsorter sends input i; the switch's outputs are
// the first m positions. The result maps each input either to its
// output (if its message landed among the first m positions and is
// valid) or to −1.
func Lemma2Route(valid *bitvec.Vector, perm []int, m int) ([]int, error) {
	if len(perm) != valid.Len() {
		return nil, fmt.Errorf("nearsort: perm has %d entries for %d inputs", len(perm), valid.Len())
	}
	out := make([]int, valid.Len())
	seen := make([]bool, valid.Len())
	for i, p := range perm {
		if p < 0 || p >= valid.Len() || seen[p] {
			return nil, fmt.Errorf("nearsort: perm is not a permutation at input %d", i)
		}
		seen[p] = true
		if valid.Get(i) && p < m {
			out[i] = p
		} else {
			out[i] = -1
		}
	}
	return out, nil
}

// Fig2Params are the parameters of the Figure 2 construction.
type Fig2Params struct {
	N, M, Eps, K int
}

// Fig2Counterexample builds the output pattern of Figure 2: a valid
// (n, m, 1−ε/m) partial concentration of k > m−ε messages whose output
// sequence is NOT ε-nearsorted — demonstrating that the converse of
// Lemma 2 does not hold. It routes m−ε messages to the first m−ε
// outputs and parks the remaining k−m+ε messages on the last outputs.
// The construction requires k+ε < (n+m)/2 (the figure's condition) so
// that the parked messages are more than ε positions out of place.
func Fig2Counterexample(p Fig2Params) (*bitvec.Vector, error) {
	n, m, eps, k := p.N, p.M, p.Eps, p.K
	if !(0 < m && m <= n) || eps < 0 {
		return nil, fmt.Errorf("nearsort: invalid Fig.2 dimensions n=%d m=%d ε=%d", n, m, eps)
	}
	if k <= m-eps || k > n {
		return nil, fmt.Errorf("nearsort: Fig.2 needs m−ε < k ≤ n, got k=%d", k)
	}
	if 2*(k+eps) >= n+m {
		return nil, fmt.Errorf("nearsort: Fig.2 needs k+ε < (n+m)/2, got k=%d ε=%d n=%d m=%d", k, eps, n, m)
	}
	v := bitvec.New(n)
	for i := 0; i < m-eps; i++ {
		v.Set(i, true)
	}
	parked := k - (m - eps)
	for i := n - parked; i < n; i++ {
		v.Set(i, true)
	}
	return v, nil
}

// WorstEpsilon measures the worst-case nearsortedness of a sorter over
// a set of input patterns: sorter must return the rearranged valid
// bits. This is how the benches compare the paper's ε bounds with
// observed behaviour.
func WorstEpsilon(sorter func(*bitvec.Vector) (*bitvec.Vector, error), patterns []*bitvec.Vector) (int, error) {
	worst := 0
	for _, p := range patterns {
		out, err := sorter(p)
		if err != nil {
			return 0, err
		}
		if out.Count() != p.Count() {
			return 0, fmt.Errorf("nearsort: sorter changed the number of valid bits (%d -> %d)",
				p.Count(), out.Count())
		}
		if e := out.Nearsortedness(); e > worst {
			worst = e
		}
	}
	return worst, nil
}

// WorstLoadRatio measures the worst observed load ratio of a switch
// over a set of patterns: route must return the out mapping onto m
// outputs. The load ratio of one instance with k messages and r routed
// is r/min(k, m); the function returns the minimum over patterns with
// k > 0.
func WorstLoadRatio(route func(*bitvec.Vector) ([]int, error), m int, patterns []*bitvec.Vector) (float64, error) {
	worst := 1.0
	for _, p := range patterns {
		k := p.Count()
		if k == 0 {
			continue
		}
		out, err := route(p)
		if err != nil {
			return 0, err
		}
		routed := 0
		for _, o := range out {
			if o >= 0 {
				routed++
			}
		}
		denom := k
		if m < denom {
			denom = m
		}
		if ratio := float64(routed) / float64(denom); ratio < worst {
			worst = ratio
		}
	}
	return worst, nil
}

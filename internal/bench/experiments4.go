package bench

import (
	"fmt"
	"io"
	"math/rand"

	"concentrators/internal/concgraph"
	"concentrators/internal/core"
	"concentrators/internal/switchsim"
)

// --- X8 -------------------------------------------------------------------------

func runCongestionPolicies(w io.Writer) error {
	section(w, "X8", "congestion control policies")
	fmt.Fprintln(w, `§1: unrouted messages may be buffered, misrouted, or dropped-and-resent.`)
	fmt.Fprintln(w, "n=64 inputs → m=16 outputs (oversubscribed funnel), 300 rounds per point.")
	sw, err := core.NewPerfectSwitch(64, 16)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %6s | %9s %9s %9s %9s %10s\n",
		"policy", "load", "offered", "delivered", "lost", "refused", "latency")
	for _, pol := range []switchsim.Policy{switchsim.Drop, switchsim.Resend, switchsim.Buffer, switchsim.Misroute} {
		for _, load := range []float64{0.1, 0.25, 0.5, 0.9} {
			ack := 0
			if pol == switchsim.Resend {
				ack = 2 // ack round trip before a resend
			}
			stats, err := switchsim.RunSession(sw, switchsim.SessionConfig{
				Policy: pol, Load: load, Rounds: 300, PayloadBits: 8, Seed: 211,
				AckDelay: ack,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8s %6.2f | %9d %9d %9d %9d %9.2fr\n",
				pol, load, stats.Offered, stats.Delivered, stats.Dropped, stats.Refused,
				stats.MeanLatency())
		}
	}
	fmt.Fprintln(w, "reading: below saturation (load·n ≤ m) the policies coincide; past it, drop")
	fmt.Fprintln(w, "trades loss for zero latency while resend/buffer trade latency (and, for")
	fmt.Fprintln(w, "buffer, refused arrivals) for losslessness — §1's tradeoff, quantified.")
	return nil
}

// --- X9 -------------------------------------------------------------------------

func runGraphConcentrators(w io.Writer) error {
	section(w, "X9", "graph concentrators")
	rng := rand.New(rand.NewSource(212))
	n, m := 20, 10
	fmt.Fprintf(w, "random degree-d bipartite graphs, n=%d m=%d (Pinsker's probabilistic construction):\n", n, m)
	fmt.Fprintf(w, "%8s %10s %18s\n", "degree", "edges", "mean exact capacity")
	for _, d := range []int{1, 2, 3, 4, 6} {
		total := 0
		const trials = 15
		for trial := 0; trial < trials; trial++ {
			g, err := concgraph.RandomRegular(n, m, d, rng)
			if err != nil {
				return err
			}
			c, err := g.ExactCapacity()
			if err != nil {
				return err
			}
			total += c
		}
		fmt.Fprintf(w, "%8d %10d %18.2f\n", d, n*d, float64(total)/trials)
	}
	complete, err := concgraph.Complete(n, m)
	if err != nil {
		return err
	}
	cc, err := complete.ExactCapacity()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %10d %18d   (crossbar / perfect concentrator)\n", "n·m", complete.EdgeCount(), cc)
	fmt.Fprintln(w, "reading: O(n) random edges already concentrate near-perfectly — but the graph")
	fmt.Fprintln(w, "is an existence proof, not a switch: routing it needs a matching computation.")
	fmt.Fprintln(w, "The paper's constructions spend Θ(n^{3/2}) chip area to get self-routing,")
	fmt.Fprintln(w, "combinational, O(lg n)-delay concentration — that is the constructiveness tax.")
	return nil
}

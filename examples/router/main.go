// Router: the paper's motivating scenario (§1) — a routing network in a
// parallel computer whose switches must concentrate relatively few
// messages on many lines onto fewer lines.
//
// A 4096-processor machine funnels traffic toward a 512-port shared
// resource through a two-stage funnel: a multichip partial concentrator
// (n = 4096 is far past single-chip pin budgets) followed by a
// single-chip perfect concentrator that cleans up the partial stage's
// slack. We compare the funnel built from the Revsort switch and from
// Columnsort switches at two β values, under rising offered load.
//
// Run with: go run ./examples/router
package main

import (
	"fmt"
	"log"

	"concentrators/internal/core"
	"concentrators/internal/seedrand"
	"concentrators/internal/switchsim"
)

func main() {
	const (
		n      = 4096 // processors
		mid    = 2048 // partial concentrator output wires
		mFinal = 512  // shared-resource ports
	)

	funnels := []struct {
		name  string
		stage core.Concentrator
	}{}

	rev, err := core.NewRevsortSwitch(n, mid)
	if err != nil {
		log.Fatal(err)
	}
	funnels = append(funnels, struct {
		name  string
		stage core.Concentrator
	}{"revsort funnel", rev})

	for _, beta := range []float64{0.5, 0.75} {
		col, err := core.NewColumnsortSwitchBeta(n, mid, beta)
		if err != nil {
			log.Fatal(err)
		}
		r, s := col.Shape()
		funnels = append(funnels, struct {
			name  string
			stage core.Concentrator
		}{fmt.Sprintf("columnsort β=%.2f (r=%d,s=%d)", beta, r, s), col})
	}

	fmt.Printf("funnel: %d processors → partial concentrator → %d wires → perfect chip → %d ports\n\n",
		n, mid, mFinal)
	fmt.Printf("%-32s %8s %8s %10s\n", "design", "ε", "delays", "chips")
	cleanup, err := core.NewPerfectSwitch(mid, mFinal)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range funnels {
		p, err := switchsim.NewPipeline(f.stage, cleanup)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s %8d %8d %10d\n", f.name, f.stage.EpsilonBound(), p.GateDelays(), f.stage.ChipCount()+1)
	}

	fmt.Printf("\ndelivered messages (of min(k, %d) deliverable) at rising offered load, 20 rounds each:\n", mFinal)
	fmt.Printf("%-32s", "design")
	loads := []float64{0.05, 0.10, 0.15, 0.25, 0.50}
	for _, l := range loads {
		fmt.Printf("%10.2f", l)
	}
	fmt.Println()

	for _, f := range funnels {
		pipeline, err := switchsim.NewPipeline(f.stage, cleanup)
		if err != nil {
			log.Fatal(err)
		}
		stream := seedrand.NewStream(42)
		fmt.Printf("%-32s", f.name)
		for _, load := range loads {
			var sent, delivered int
			for round := 0; round < 20; round++ {
				msgs := switchsim.RandomMessages(&stream, n, load, 8)
				pr, err := pipeline.Run(msgs)
				if err != nil {
					log.Fatal(err)
				}
				deliverable := len(msgs)
				if deliverable > mFinal {
					deliverable = mFinal
				}
				sent += deliverable
				delivered += len(pr.Delivered)
			}
			fmt.Printf("%9.2f%%", 100*float64(delivered)/float64(sent))
		}
		fmt.Println()
	}

	fmt.Println("\nreading: below the load ratio every deliverable message arrives; a partial")
	fmt.Println("concentrator only starts shedding when k exceeds αm — and the cheaper the")
	fmt.Println("switch (smaller β), the earlier that happens.")
}

package pool

import (
	"fmt"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/seedrand"
	"concentrators/internal/switchsim"
)

// benchPool builds the pool-round benchmark fixture: four replicas,
// each carrying a dead chip behind an effectively infinite trip
// threshold, so every round sweeps the whole replica set.
func benchPool(tb testing.TB, n int) *Pool {
	tb.Helper()
	switches := make([]core.FaultInjectable, 4)
	for i := range switches {
		sw, err := core.NewColumnsortSwitchBeta(n, n/2, 0.75)
		if err != nil {
			tb.Fatal(err)
		}
		switches[i] = sw
	}
	p, err := New(Config{TripThreshold: 1 << 30}, switches...)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range switches {
		if err := p.InjectFault(i, core.ChipFault{Stage: 0, Chip: 0, Mode: core.ChipDead}); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// BenchmarkPoolRound measures one failover-sweep pool round.
func BenchmarkPoolRound(b *testing.B) {
	stream := seedrand.NewStream(73)
	for _, n := range []int{256, 1024, 4096} {
		msgs := switchsim.RandomMessages(&stream, n, 0.4, 8)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			p := benchPool(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(msgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

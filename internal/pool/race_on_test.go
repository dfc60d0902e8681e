//go:build race

package pool

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool (used by the switches' route
// scratch) deliberately drops items, so allocation counts vary from
// round to round.
const raceEnabled = true

//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// share of what is put into it, so allocation counts are not exact.
const raceEnabled = true

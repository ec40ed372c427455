//go:build race

package tensor

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool randomly drops items, so allocation counts are not stable.
const raceEnabled = true

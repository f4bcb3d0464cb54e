//go:build race

package sweep

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops items at random, so allocation counts do not repeat.
const raceEnabled = true

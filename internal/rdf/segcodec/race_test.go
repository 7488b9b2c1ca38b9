//go:build race

package segcodec

// raceEnabled reports that the race detector is on: sync.Pool drops items at
// random under it, so allocation counts are not the program's own.
const raceEnabled = true

//go:build !race

package segcodec

const raceEnabled = false

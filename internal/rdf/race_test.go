//go:build race

package rdf

// raceEnabled reports that the race detector is on: it shadows every heap
// object, so live heap sizes are not the program's own.
const raceEnabled = true

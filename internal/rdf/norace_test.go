//go:build !race

package rdf

const raceEnabled = false

//go:build !race

package model

const raceEnabled = false

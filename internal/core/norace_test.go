//go:build !race

package core

// raceEnabled reports that the race detector is on.
const raceEnabled = false

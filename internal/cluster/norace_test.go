//go:build !race

package cluster

// raceEnabled reports that the race detector is on.
const raceEnabled = false

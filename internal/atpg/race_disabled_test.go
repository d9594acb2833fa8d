//go:build !race

package atpg

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

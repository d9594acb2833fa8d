//go:build race

package main

// raceEnabled reports whether the race detector is compiled in: it
// makes sync.Pool drop items at random, so pooled allocation pins skip.
const raceEnabled = true

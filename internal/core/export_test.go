package core

// ForceGeneric exposes forceGeneric to the external core_test package,
// whose tests drive the codec through container framing (which core
// itself cannot import).
func ForceGeneric(c *Codec) *Codec { return forceGeneric(c) }

// RaceEnabled exposes raceEnabled to core_test: sync.Pool drops items
// at random under the race detector, so pooled allocation pins skip.
const RaceEnabled = raceEnabled

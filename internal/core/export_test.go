package core

// ForceGeneric exposes forceGeneric to the external core_test package,
// whose tests drive the codec through container framing (which core
// itself cannot import).
func ForceGeneric(c *Codec) *Codec { return forceGeneric(c) }

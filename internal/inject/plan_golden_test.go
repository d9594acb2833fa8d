package inject

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestProxyPlanGolden pins the fault plan chaos-smoke replays: under
// its proxy config (scripts/chaos_smoke.sh), the (reset, resetAt,
// slow) draws for connection ids 1–256. A change to the draw order or
// to the mixer fails here before it silently reshuffles which
// connections the smoke breaks.
func TestProxyPlanGolden(t *testing.T) {
	p := &Proxy{cfg: ProxyConfig{Seed: 9314, Latency: 5 * time.Millisecond, ResetProb: 0.05, SlowLorisProb: 0.05}}
	h := sha256.New()
	var resets, slows []int64
	for id := int64(1); id <= 256; id++ {
		cp := p.plan(id)
		fmt.Fprintf(h, "%d %t %d %t\n", id, cp.reset, cp.resetAt, cp.slow)
		if cp.reset {
			resets = append(resets, id)
		}
		if cp.slow {
			slows = append(slows, id)
		}
	}
	if want := []int64{22, 118, 218, 220}; !slices.Equal(resets, want) {
		t.Errorf("reset ids = %v, want %v", resets, want)
	}
	if want := []int64{11, 13, 33, 104, 132, 155, 227, 228, 234, 238, 239, 249}; !slices.Equal(slows, want) {
		t.Errorf("slow-loris ids = %v, want %v", slows, want)
	}
	const want = "413cafe388d91a55236a4300e6c6ff801a934c06aea47bafcae506c856ee3f64"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("plan digest = %s, want %s", got, want)
	}
}

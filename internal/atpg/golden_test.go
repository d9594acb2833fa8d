package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/synth"
)

// TestGenerateGoldenReorderSets pins the compacted ATPG cube sets that
// the scan-cell reordering experiment (experiments.ExtraReorder at
// scale 1, the RESULTS.txt table) is built from: the SHA-256 of each
// set's 01X text. A change to the PODEM search, implication or
// compaction that alters any cube shows up here. It runs one
// goroutine, so the race detector has nothing to check in it, and
// under -race its three full ATPG runs take minutes of the race gate:
// it runs without -race only.
func TestGenerateGoldenReorderSets(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine golden test; minutes under -race")
	}
	want := map[string]string{
		"s5378":  "58598cc1f1f4c6e0bb3c2e7ba5ad7880f35368f8317285e8e3c3f79bea095ec1",
		"s9234":  "33d20a1e16db64326b97967893228291422503fa756fe87309677415aaeff5d8",
		"s13207": "05a74d02dd5d145c2bf37f887ba27d4823d7936c35effada75e9475b473c9bf9",
	}
	for _, name := range []string{"s5378", "s9234", "s13207"} {
		cs, err := synth.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ckt, err := synth.CircuitProfileFor(cs, 10, 7).Generate()
		if err != nil {
			t.Fatal(err)
		}
		sv, err := ckt.FullScan()
		if err != nil {
			t.Fatal(err)
		}
		set, _, err := Generate(sv, faultsim.Collapse(ckt), Options{FillSeed: 3, Compact: true})
		if err != nil {
			t.Fatal(err)
		}
		var text strings.Builder
		if err := set.Write(&text); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(text.String()))
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: %d patterns, cube set SHA-256 %s, want %s", name, set.Len(), got, want[name])
		}
	}
}

// TestAssignMatchesFullImply checks the event-driven implication
// against the full pass: on random synthetic circuits and faults, after
// every assign of a random PPI value (including unassigns back to X),
// a full imply over the resulting plane changes no gate.
func TestAssignMatchesFullImply(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, seed := range []int64{1, 2, 3} {
		cs := synth.Benchmarks[int(seed)%len(synth.Benchmarks)]
		ckt, err := synth.CircuitProfileFor(cs, 10, seed).Generate()
		if err != nil {
			t.Fatal(err)
		}
		sv, err := ckt.FullScan()
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(sv)
		faults := faultsim.Collapse(ckt)
		for trial := 0; trial < 25; trial++ {
			g.fault = faults[rng.Intn(len(faults))]
			for i := range g.val {
				g.val[i] = VX
			}
			g.imply()
			for step := 0; step < 60; step++ {
				pi := sv.PPIs[rng.Intn(len(sv.PPIs))]
				g.assign(pi, [...]V{V0, V1, VX}[rng.Intn(3)])
				want := slices.Clone(g.val)
				g.imply()
				for id := range want {
					if want[id] != g.val[id] {
						t.Fatalf("%s seed %d, fault %+v, step %d: gate %d incremental %s, full pass %s",
							cs.Name, seed, g.fault, step, id, want[id], g.val[id])
					}
				}
			}
		}
	}
}

package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/tcube"
)

// referenceCampaign is the uncollapsed, unshared baseline: loads are
// converted per call, the good machine is re-simulated per batch via
// LoadBatch, and every fault in the list is injected individually.
// Detects itself is validated against a naive full re-simulation in
// TestPropertyDetectsMatchesNaive, so this anchors the campaign
// engine's collapsing/batching/stealing machinery.
func referenceCampaign(t *testing.T, s *Simulator, set *tcube.Set, faults []Fault) Coverage {
	t.Helper()
	loads, err := LoadsFromSet(set)
	if err != nil {
		t.Fatal(err)
	}
	cov := Coverage{Total: len(faults), FirstDetectedBy: make([]int, len(faults))}
	for i := range cov.FirstDetectedBy {
		cov.FirstDetectedBy[i] = -1
	}
	for base := 0; base < len(loads); base += 64 {
		end := base + 64
		if end > len(loads) {
			end = len(loads)
		}
		if err := s.LoadBatch(loads[base:end]); err != nil {
			t.Fatal(err)
		}
		for fi, f := range faults {
			if cov.FirstDetectedBy[fi] >= 0 {
				continue
			}
			mask, err := s.Detects(f)
			if err != nil {
				t.Fatal(err)
			}
			if mask != 0 {
				first := 0
				for mask&1 == 0 {
					mask >>= 1
					first++
				}
				cov.FirstDetectedBy[fi] = base + first
				cov.Detected++
			}
		}
	}
	return cov
}

func sameCoverage(t *testing.T, what string, got, want Coverage) {
	t.Helper()
	if got.Total != want.Total || got.Detected != want.Detected {
		t.Fatalf("%s: coverage %d/%d, want %d/%d", what, got.Detected, got.Total, want.Detected, want.Total)
	}
	for i := range want.FirstDetectedBy {
		if got.FirstDetectedBy[i] != want.FirstDetectedBy[i] {
			t.Fatalf("%s: fault %d first-detected %d, want %d",
				what, i, got.FirstDetectedBy[i], want.FirstDetectedBy[i])
		}
	}
}

// TestCollapsedCampaignMatchesUncollapsed is the differential for the
// whole engine: the campaign (which collapses to representatives,
// shares precomputed batches, and classifies unobservable cones up
// front) must report bit-identical Coverage — Detected, Percent, and
// FirstDetectedBy expanded through the representative mapping — to the
// per-fault uncollapsed baseline, on both the full universe and the
// structurally collapsed list.
func TestCollapsedCampaignMatchesUncollapsed(t *testing.T) {
	c, sv := circuit(t, s27, "s27")
	rng := rand.New(rand.NewSource(21))
	set := randomSpecifiedSet(rng, 150, sv.ScanWidth())
	for _, tc := range []struct {
		name   string
		faults []Fault
	}{
		{"universe", Universe(c)},
		{"collapsed", Collapse(c)},
	} {
		want := referenceCampaign(t, NewSimulator(sv), set, tc.faults)
		serial, err := NewSimulator(sv).Campaign(set, tc.faults)
		if err != nil {
			t.Fatal(err)
		}
		sameCoverage(t, tc.name+"/serial", serial, want)
		if serial.Percent() != want.Percent() {
			t.Fatalf("%s: percent %v != %v", tc.name, serial.Percent(), want.Percent())
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := CampaignParallel(sv, set, tc.faults, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameCoverage(t, tc.name+"/parallel", par, want)
		}
	}
}

// TestCollapsedCampaignOnSynthetic repeats the differential on a
// randomly synthesized netlist, where fanout-free chains, XOR gates
// and unobservable cones all actually occur.
func TestCollapsedCampaignOnSynthetic(t *testing.T) {
	p := synth.CircuitProfile{Name: "syn", PIs: 10, POs: 5, FFs: 8, Gates: 120, Seed: 33}
	ckt, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sv, err := ckt.FullScan()
	if err != nil {
		t.Fatal(err)
	}
	faults := Universe(ckt)
	rng := rand.New(rand.NewSource(34))
	set := randomSpecifiedSet(rng, 200, sv.ScanWidth())
	want := referenceCampaign(t, NewSimulator(sv), set, faults)
	got, err := CampaignParallel(sv, set, faults, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameCoverage(t, "synthetic", got, want)
}

// TestPropertyCollapseClassesExact is the property behind collapsed
// campaigns: on randomized netlists, every fault's detection mask
// equals its class representative's mask for every random batch. This
// is strictly stronger than coverage equality — it pins the exactness
// of each CollapseFaults rule.
func TestPropertyCollapseClassesExact(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		p := synth.CircuitProfile{Name: "prop", PIs: 6, POs: 3, FFs: 5, Gates: 40 + 10*int(seed), Seed: 100 + seed}
		ckt, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		sv, err := ckt.FullScan()
		if err != nil {
			t.Fatal(err)
		}
		faults := Universe(ckt)
		cls := CollapseFaults(ckt, faults)
		if len(cls.Reps) >= len(faults) {
			t.Fatalf("seed %d: no collapsing happened (%d reps for %d faults)", seed, len(cls.Reps), len(faults))
		}
		sim := NewSimulator(sv)
		rng := rand.New(rand.NewSource(1000 + seed))
		for round := 0; round < 3; round++ {
			set := randomSpecifiedSet(rng, 32, sv.ScanWidth())
			loads, err := LoadsFromSet(set)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.LoadBatch(loads); err != nil {
				t.Fatal(err)
			}
			repMask := make([]uint64, len(cls.Reps))
			for ri, f := range cls.Reps {
				if repMask[ri], err = sim.Detects(f); err != nil {
					t.Fatal(err)
				}
			}
			for i, f := range faults {
				got, err := sim.Detects(f)
				if err != nil {
					t.Fatal(err)
				}
				if got != repMask[cls.Of[i]] {
					t.Fatalf("seed %d: fault %v mask %b, rep %v mask %b",
						seed, f, got, cls.Reps[cls.Of[i]], repMask[cls.Of[i]])
				}
			}
		}
	}
}

// TestCollapseFaultsMapping checks the structural contract of the
// representative mapping.
func TestCollapseFaultsMapping(t *testing.T) {
	c, _ := circuit(t, s27, "s27")
	faults := Universe(c)
	cls := CollapseFaults(c, faults)
	if len(cls.Of) != len(faults) {
		t.Fatalf("Of has %d entries for %d faults", len(cls.Of), len(faults))
	}
	if len(cls.Reps) == 0 || len(cls.Reps) >= len(faults) {
		t.Fatalf("suspicious class count %d for %d faults", len(cls.Reps), len(faults))
	}
	inList := map[Fault]bool{}
	for _, f := range faults {
		inList[f] = true
	}
	seen := map[Fault]bool{}
	for _, r := range cls.Reps {
		if !inList[r] {
			t.Fatalf("representative %v not in the input list", r)
		}
		if seen[r] {
			t.Fatalf("representative %v appears twice", r)
		}
		seen[r] = true
	}
	for i, of := range cls.Of {
		if of < 0 || of >= len(cls.Reps) {
			t.Fatalf("fault %d maps to class %d of %d", i, of, len(cls.Reps))
		}
	}
	// A fault that is itself a representative must map to itself.
	for ri, r := range cls.Reps {
		for i, f := range faults {
			if f == r {
				if cls.Of[i] != ri {
					t.Fatalf("representative %v maps to class %d, not its own %d", r, cls.Of[i], ri)
				}
				break
			}
		}
	}
}

// TestCampaignEquivalenceSmoke is the `make check` gate: a parallel,
// collapsed campaign over the full universe must match the serial
// per-fault reference exactly on a small circuit.
func TestCampaignEquivalenceSmoke(t *testing.T) {
	c, sv := circuit(t, s27, "s27")
	faults := Universe(c)
	rng := rand.New(rand.NewSource(55))
	set := randomSpecifiedSet(rng, 96, sv.ScanWidth())
	want := referenceCampaign(t, NewSimulator(sv), set, faults)
	got, err := CampaignParallel(sv, set, faults, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameCoverage(t, "smoke", got, want)
}

// TestDetectsNoAllocs locks in the allocation-free cone scheduler: the
// boxed container/heap is gone, and a Detects call must not allocate.
func TestDetectsNoAllocs(t *testing.T) {
	c, sv := circuit(t, s27, "s27")
	s := NewSimulator(sv)
	rng := rand.New(rand.NewSource(9))
	loads, err := LoadsFromSet(randomSpecifiedSet(rng, 64, sv.ScanWidth()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadBatch(loads); err != nil {
		t.Fatal(err)
	}
	faults := Universe(c)
	for _, f := range faults { // warm the reusable buckets/touched buffers
		if _, err := s.Detects(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range faults {
		f := f
		if n := testing.AllocsPerRun(100, func() {
			if _, err := s.Detects(f); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Detects(%v) allocates %.1f times per run", f, n)
		}
	}
}

// TestCampaignUnobservableFault pins the static-cone classification: a
// gate with no path to any PPO is undetectable and never simulated.
func TestCampaignUnobservableFault(t *testing.T) {
	// G5 is driven but drives nothing and is not an output.
	src := "INPUT(A)\nINPUT(B)\nOUTPUT(Y)\nY = AND(A, B)\nG5 = OR(A, B)\n"
	_, sv := circuit(t, src, "dangling")
	g, ok := sv.Circuit.GateByName("G5")
	if !ok {
		t.Fatal("G5 missing")
	}
	if sv.Observable[g.ID] {
		t.Fatal("dangling gate marked observable")
	}
	y, _ := sv.Circuit.GateByName("Y")
	if !sv.Observable[y.ID] {
		t.Fatal("output gate not observable")
	}
	rng := rand.New(rand.NewSource(3))
	set := randomSpecifiedSet(rng, 8, sv.ScanWidth())
	faults := []Fault{
		{Gate: g.ID, Pin: -1, StuckAt: true},
		{Gate: g.ID, Pin: 0, StuckAt: false},
		{Gate: y.ID, Pin: -1, StuckAt: false},
	}
	cov, err := NewSimulator(sv).Campaign(set, faults)
	if err != nil {
		t.Fatal(err)
	}
	if cov.FirstDetectedBy[0] != -1 || cov.FirstDetectedBy[1] != -1 {
		t.Fatalf("unobservable faults detected: %+v", cov)
	}
	if cov.FirstDetectedBy[2] < 0 {
		t.Fatalf("observable output fault undetected: %+v", cov)
	}
}

// TestCampaignTelemetryCounters wires a registry and asserts the new
// engine counters move: collapsing merged classes, the cone filter
// skipped the dangling gate, and the work queue drained.
func TestCampaignTelemetryCounters(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()

	src := "INPUT(A)\nINPUT(B)\nOUTPUT(Y)\nN = NOT(A)\nY = AND(N, B)\nG5 = OR(A, B)\n"
	ckt, sv := circuit(t, src, "telemetry")
	rng := rand.New(rand.NewSource(4))
	set := randomSpecifiedSet(rng, 16, sv.ScanWidth())
	if _, err := CampaignParallel(sv, set, Universe(ckt), 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"faultsim.faults_collapsed", "faultsim.cone_skipped", "faultsim.steal_waits"} {
		if got := reg.Counter(name).Value(); got <= 0 {
			t.Fatalf("%s = %d, want > 0", name, got)
		}
	}
	if got := reg.Counter("faultsim.patterns_simulated").Value(); got != int64(set.Len()) {
		t.Fatalf("patterns_simulated = %d, want %d", got, set.Len())
	}
}

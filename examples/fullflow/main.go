// Full DFT flow, end to end: a synthetic full-scan circuit goes
// through PODEM test generation, 9C compression, cycle-accurate
// on-chip decompression, scan application and fault grading — the
// complete loop the paper's technique slots into. The closing check
// compares the coverage of the shipped (decompressed + filled)
// patterns against the generated ones.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"repro/internal/ate"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/synth"
)

func main() {
	// 1. A scaled s9234-profile circuit (structure from the published
	// benchmark, logic synthesized randomly — see DESIGN.md §4).
	cs, err := synth.BenchmarkByName("s9234")
	if err != nil {
		log.Fatal(err)
	}
	prof := synth.CircuitProfileFor(cs, 20, 42)
	ckt, err := prof.Generate()
	if err != nil {
		log.Fatal(err)
	}
	sv, err := ckt.FullScan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: %s/20 — %d gates, %d PIs, %d FFs, scan width %d\n",
		cs.Name, ckt.NumLogicGates(), len(ckt.Inputs), len(ckt.DFFs), sv.ScanWidth())

	// 2. ATPG: PODEM with fault dropping and reverse-order compaction.
	faults := faultsim.Collapse(ckt)
	cubes, stats, err := atpg.Generate(sv, faults, atpg.Options{FillSeed: 5, Compact: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ATPG: %d collapsed faults -> %d cubes, campaign coverage %.2f%%, %.1f%% X\n",
		stats.Faults, cubes.Len(), stats.CoveragePercent, cubes.XPercent())

	// 3. 9C compression, fanned across the machine's cores (the stream
	// is bit-identical to a serial encode).
	codec, err := core.New(8)
	if err != nil {
		log.Fatal(err)
	}
	r, err := codec.Encode(context.Background(), cubes, core.EncodeOptions{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("9C: %d -> %d bits (CR %.2f%%), %.2f%% leftover don't-cares\n",
		r.OrigBits, r.CompressedBits(), r.CR(), r.LXPercent())

	// 4. Ship through the cycle-accurate decoder.
	rep, err := ate.Session{P: 8, FillSeed: 6}.RunSingleScan(r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decoder: %d ATE cycles + %d scan cycles, TAT %.2f%%\n",
		rep.ATECycles, rep.ScanCycles, rep.TATMeasured)

	// 5. Decode, fill the leftover X randomly, grade coverage.
	decoded, err := codec.DecodeSet(r.Stream, cubes.Width(), cubes.Len())
	if err != nil {
		log.Fatal(err)
	}
	if !cubes.Covers(decoded) {
		log.Fatal("decompression disturbed a specified bit")
	}
	sim := faultsim.NewSimulator(sv)
	covBefore, err := sim.Campaign(atpg.FillSet(cubes, 5), faults)
	if err != nil {
		log.Fatal(err)
	}
	covAfter, err := sim.Campaign(atpg.FillSet(decoded, 5), faults)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collapsed-fault coverage: %.2f%% as generated, %.2f%% after decompression + fill\n",
		covBefore.Percent(), covAfter.Percent())

	// The paper's motivation: random fill of leftover X also catches
	// faults outside the target list. Grade the full uncollapsed
	// universe as the non-modeled surrogate.
	universe := faultsim.Universe(ckt)
	covU, err := sim.Campaign(atpg.FillSet(decoded, 5), universe)
	if err != nil {
		log.Fatal(err)
	}
	covZ, err := sim.Campaign(decoded.FillConst(0), universe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full fault universe: %.2f%% with random fill vs %.2f%% with zero fill\n",
		covU.Percent(), covZ.Percent())
}

package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/tcube"
)

// parallelEdgeSet builds a deterministic mixed-density set for the
// worker-pool edge cases.
func parallelEdgeSet(name string, patterns, width int) *tcube.Set {
	rng := rand.New(rand.NewSource(int64(patterns)*1000 + int64(width)))
	s := tcube.NewSet(name, width)
	for i := 0; i < patterns; i++ {
		s.MustAppend(diffCube(rng, width, 0.6))
	}
	return s
}

// TestEncodeSetParallelEdgeCases pins Encode's degenerate worker
// geometries to the serial path: empty set, single pattern, more
// workers than patterns, workers=1 and the zero default must all
// produce the same stream, Counts, and statistics as EncodeSet.
func TestEncodeSetParallelEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		patterns int
		workers  int
	}{
		{"empty set", 0, 4},
		{"single pattern", 1, 4},
		{"workers exceed patterns", 3, 8},
		{"workers exceed patterns by far", 5, 64},
		{"workers one", 13, 1},
		{"workers default", 13, 0},
		{"workers equal patterns", 6, 6},
		{"workers uneven chunks", 13, 4},
	}
	for _, k := range []int{4, 8, 16} {
		cdc := mustCodec(t, k)
		for _, tc := range cases {
			t.Run(tc.name+"/K="+itoa(k), func(t *testing.T) {
				set := parallelEdgeSet("edge", tc.patterns, 2*k+3)
				serial, err := cdc.EncodeSet(set)
				if err != nil {
					t.Fatal(err)
				}
				par, err := cdc.Encode(context.Background(), set, EncodeOptions{Workers: tc.workers})
				if err != nil {
					t.Fatal(err)
				}
				checkSameResult(t, tc.name, par, serial)
				if par.Name != serial.Name || par.Name != "edge" {
					t.Errorf("set name not propagated: parallel %q, serial %q", par.Name, serial.Name)
				}
				if par.Assign != serial.Assign {
					t.Errorf("assignments differ: %s vs %s", par.Assign, serial.Assign)
				}
			})
		}
	}
}

// TestEncodeSetParallelEmptyDecodes asserts the empty-set encoding is
// an empty stream with zero Counts, whatever the worker count.
func TestEncodeSetParallelEmptyDecodes(t *testing.T) {
	cdc := mustCodec(t, 8)
	set := tcube.NewSet("none", 24)
	for _, w := range []int{0, 1, 2, 16} {
		r, err := cdc.Encode(context.Background(), set, EncodeOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if r.Stream.Len() != 0 {
			t.Errorf("workers=%d: empty set encoded to %d bits", w, r.Stream.Len())
		}
		if r.Counts != (Counts{}) {
			t.Errorf("workers=%d: empty set produced counts %v", w, r.Counts)
		}
		if r.Blocks != 0 || r.Patterns != 0 {
			t.Errorf("workers=%d: geometry %d blocks, %d patterns", w, r.Blocks, r.Patterns)
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/tcube"
)

func wsTestSet(rng *rand.Rand, patterns, width int) *tcube.Set {
	set := tcube.NewSet("ws", width)
	for i := 0; i < patterns; i++ {
		set.MustAppend(diffCube(rng, width, 0.6))
	}
	return set
}

// TestEncodeSetWSMatchesEncodeSet pins the workspace encode
// bit-identical to the one-shot path, including after workspace reuse
// across sets of different shapes.
func TestEncodeSetWSMatchesEncodeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ws := GetWorkspace()
	defer ws.Release()
	for _, k := range append([]int{2, 6}, kernelKs...) {
		cdc := mustCodec(t, k)
		for _, geom := range []struct{ patterns, width int }{
			{5, 100}, {1, 1}, {17, 3 * k}, {3, 64 + k + 1}, {0, 10},
		} {
			set := wsTestSet(rng, geom.patterns, geom.width)
			want, err := cdc.EncodeSet(set)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cdc.EncodeSetWS(ws, set)
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, "K="+itoa(k)+" "+itoa(geom.patterns)+"x"+itoa(geom.width), got, want)
		}
	}
}

// TestWorkspaceZeroAlloc pins the zero-allocation steady state of the
// serial encode: with a warm workspace, EncodeSetWS allocates nothing
// per call for every kernel K and for a generic one (K=6).
func TestWorkspaceZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, k := range append([]int{6}, kernelKs...) {
		cdc := mustCodec(t, k)
		set := wsTestSet(rng, 32, 300)
		ws := GetWorkspace()
		if _, err := cdc.EncodeSetWS(ws, set); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := cdc.EncodeSetWS(ws, set); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("K=%d: EncodeSetWS allocated %v per run", k, allocs)
		}
		ws.Release()
	}
}

// TestWorkspaceResultInvalidation documents the aliasing contract: a
// Result from EncodeSetWS is rewritten by the workspace's next use,
// and copying the stream first preserves it.
func TestWorkspaceResultInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	cdc := mustCodec(t, 16)
	ws := GetWorkspace()
	defer ws.Release()
	a := wsTestSet(rng, 4, 128)
	b := wsTestSet(rng, 4, 128)
	ra, err := cdc.EncodeSetWS(ws, a)
	if err != nil {
		t.Fatal(err)
	}
	saved := ra.Stream.Clone()
	if _, err := cdc.EncodeSetWS(ws, b); err != nil {
		t.Fatal(err)
	}
	// The saved copy still decodes back to a's patterns.
	dec, err := cdc.DecodeSet(saved, a.Width(), a.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Covers(dec) {
		t.Fatal("saved stream no longer decodes to the first set")
	}
}

// TestKernelWriterReuse pins that a reused kernelWriter starts every
// round from all-zero planes (reset clears exactly what was touched).
func TestKernelWriterReuse(t *testing.T) {
	var w kernelWriter
	for round := 0; round < 3; round++ {
		w.reset(512)
		for i := 0; i < 512; i += 8 {
			w.append(0xff, 0xaa, 8)
		}
		c := w.takeCopy()
		if c.Len() != 512 {
			t.Fatalf("round %d: len %d", round, c.Len())
		}
		for i := 0; i < 512; i++ {
			want := bitvec.Zero
			if i%2 == 1 {
				want = bitvec.One
			}
			if c.Get(i) != want {
				t.Fatalf("round %d: bit %d = %v, want %v", round, i, c.Get(i), want)
			}
		}
		// Shrinking rounds must not see stale tail words.
		w.reset(64)
		w.append(^uint64(0), 0, 64)
		s := w.takeCopy()
		for i := 0; i < 64; i++ {
			if s.Get(i) != bitvec.Zero {
				t.Fatalf("round %d: stale bit %d after shrink", round, i)
			}
		}
	}
}

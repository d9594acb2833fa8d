package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/tcube"
)

// diffKs is the block-size sweep for the differential suites: every
// kernel K plus sizes that take the generic encoder, one of them with
// halves wider than a plane word.
var diffKs = []int{2, 4, 6, 8, 10, 16, 32, 130}

// diffCube returns an n-trit cube with roughly xDensity of its
// positions left X; the rest split between 0 and 1.
func diffCube(rng *rand.Rand, n int, xDensity float64) *bitvec.Cube {
	c := bitvec.NewCube(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < xDensity {
			continue
		}
		c.Set(i, bitvec.Trit(rng.Intn(2)))
	}
	return c
}

// checkSameResult asserts two encodings are bit-identical, stream and
// statistics both.
func checkSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !got.Stream.Equal(want.Stream) {
		t.Fatalf("%s: streams differ:\n fast %s\n ref  %s", label, got.Stream, want.Stream)
	}
	if got.Counts != want.Counts {
		t.Fatalf("%s: counts differ: %v vs %v", label, got.Counts, want.Counts)
	}
	if got.OrigBits != want.OrigBits || got.Blocks != want.Blocks ||
		got.LeftoverX != want.LeftoverX || got.Patterns != want.Patterns ||
		got.Width != want.Width || got.K != want.K {
		t.Fatalf("%s: result geometry differs: %+v vs %+v", label, got, want)
	}
}

// TestDifferentialEncodeCube cross-checks the word-parallel encoder
// against the trit-level reference over block sizes, lengths (empty,
// exact multiples, trailing partial blocks) and X densities (all-X,
// no-X, mixed).
func TestDifferentialEncodeCube(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range diffKs {
		cdc := mustCodec(t, k)
		lengths := []int{0, 1, k - 1, k, k + 1, 3 * k, 5*k + 3, 257, 1000}
		for _, n := range lengths {
			if n < 0 {
				continue
			}
			for _, xd := range []float64{0, 0.25, 0.75, 1} {
				flat := diffCube(rng, n, xd)
				fast, err := cdc.EncodeCube(flat)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := cdc.EncodeCubeReference(flat)
				if err != nil {
					t.Fatal(err)
				}
				label := "K=" + itoa(k) + " n=" + itoa(n)
				checkSameResult(t, label, fast, ref)
				dec, err := cdc.DecodeCube(fast.Stream, n)
				if err != nil {
					t.Fatalf("%s: decode: %v", label, err)
				}
				if !flat.Covers(dec) {
					t.Fatalf("%s: decode flipped a specified bit", label)
				}
			}
		}
	}
}

// encodeSetPaths is every way to encode a set: into a fresh stream,
// or into a warm workspace.
func encodeSetPaths(c *Codec, ws *Workspace) map[string]func(context.Context, *tcube.Set) (*Result, error) {
	return map[string]func(context.Context, *tcube.Set) (*Result, error){
		"fresh": c.Encode,
		"ws": func(ctx context.Context, s *tcube.Set) (*Result, error) {
			return c.EncodeSetWSCtx(ctx, ws, s)
		},
	}
}

// TestDifferentialEncodeSet is the set-level cross-check: both
// encodeSetPaths must match the reference, with both the default and
// a frequency-directed codeword assignment. The result carries the
// set's name and the codec's assignment, and an empty set encodes to
// an empty stream with zero Counts.
func TestDifferentialEncodeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ws := GetWorkspace()
	defer ws.Release()
	ctx := context.Background()
	for _, k := range diffKs {
		for _, geom := range []struct{ patterns, width int }{
			{0, 40}, {1, 1}, {3, k}, {7, 3*k + 1}, {17, 100},
		} {
			set := tcube.NewSet("diff", geom.width)
			for i := 0; i < geom.patterns; i++ {
				set.MustAppend(diffCube(rng, geom.width, 0.6))
			}
			cdc := mustCodec(t, k)
			ref, err := cdc.EncodeSetReference(set)
			if err != nil {
				t.Fatal(err)
			}
			fd, err := NewWithAssignment(k, FrequencyDirected(ref.Counts))
			if err != nil {
				t.Fatal(err)
			}
			refFD, err := fd.EncodeSetReference(set)
			if err != nil {
				t.Fatal(err)
			}
			label := "K=" + itoa(k) + " " + itoa(geom.patterns) + "x" + itoa(geom.width)
			fdPaths := encodeSetPaths(fd, ws)
			for path, enc := range encodeSetPaths(cdc, ws) {
				got, err := enc(ctx, set)
				if err != nil {
					t.Fatal(err)
				}
				checkSameResult(t, label+" "+path, got, ref)
				if got.Name != "diff" || got.Assign != cdc.Assignment() {
					t.Fatalf("%s %s: name %q, assignment %s", label, path, got.Name, got.Assign)
				}
				if geom.patterns == 0 && (got.Stream.Len() != 0 || got.Counts != (Counts{}) || got.Blocks != 0) {
					t.Fatalf("%s %s: empty set encoded to %d bits, counts %v, %d blocks",
						label, path, got.Stream.Len(), got.Counts, got.Blocks)
				}
				gotFD, err := fdPaths[path](ctx, set)
				if err != nil {
					t.Fatal(err)
				}
				checkSameResult(t, label+" "+path+" fd", gotFD, refFD)
			}
		}
	}
}

// FuzzEncodeDifferential lets the fuzzer hunt for inputs where the
// word-parallel and reference encoders disagree: the cube encoder, and
// both encodeSetPaths on the cube as a one-pattern set.
func FuzzEncodeDifferential(f *testing.F) {
	f.Add("0000X1X011111111", uint8(4))
	f.Add("XXXXXXXX", uint8(1))
	f.Add("01", uint8(0))
	f.Add("", uint8(7))
	f.Fuzz(func(t *testing.T, cubeTxt string, kRaw uint8) {
		k := (int(kRaw%16) + 1) * 2
		flat, err := bitvec.ParseCube(cubeTxt)
		if err != nil {
			return
		}
		cdc, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := cdc.EncodeCube(flat)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := cdc.EncodeCubeReference(flat)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Stream.Equal(ref.Stream) || fast.Counts != ref.Counts {
			t.Fatalf("encoders disagree on %q K=%d:\n fast %s\n ref  %s",
				cubeTxt, k, fast.Stream, ref.Stream)
		}
		set := tcube.NewSet("fuzz", flat.Len())
		set.MustAppend(flat)
		refSet, err := cdc.EncodeSetReference(set)
		if err != nil {
			t.Fatal(err)
		}
		ws := GetWorkspace()
		defer ws.Release()
		for path, enc := range encodeSetPaths(cdc, ws) {
			got, err := enc(context.Background(), set)
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, "K="+itoa(k)+" "+path, got, refSet)
		}
	})
}

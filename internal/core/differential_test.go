package core

import (
	"context"
	"math/rand"
	"runtime"
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

// encodeOptionMatrix is every option shape Encode takes: no workspace
// or a warm one, times serial (0, 1), two workers, and more workers
// than the machine has Ps.
func encodeOptionMatrix(ws *Workspace) []EncodeOptions {
	var out []EncodeOptions
	for _, w := range []*Workspace{nil, ws} {
		for _, n := range []int{0, 1, 2, runtime.GOMAXPROCS(0) + 3} {
			out = append(out, EncodeOptions{WS: w, Workers: n})
		}
	}
	return out
}

// TestDifferentialEncodeSet is the set-level cross-check: Encode under
// every option in encodeOptionMatrix must match the reference, with
// both the default and a frequency-directed codeword assignment.
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
			for _, opt := range encodeOptionMatrix(ws) {
				olabel := label + " ws=" + itoa(b2i(opt.WS != nil)) + " workers=" + itoa(opt.Workers)
				got, err := cdc.Encode(ctx, set, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkSameResult(t, olabel, got, ref)
				gotFD, err := fd.Encode(ctx, set, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkSameResult(t, olabel+" fd", gotFD, refFD)
			}
		}
	}
}

// TestEncodeSetParallelIdentical asserts Encode's fan-out is
// bit-identical to the serial path for several worker counts, as the
// on-chip decoder requires (it replays one deterministic stream).
func TestEncodeSetParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, k := range []int{4, 16} {
		cdc := mustCodec(t, k)
		for _, patterns := range []int{0, 1, 2, 17, 64} {
			width := 3*k + 5
			set := tcube.NewSet("par", width)
			for i := 0; i < patterns; i++ {
				set.MustAppend(diffCube(rng, width, 0.5))
			}
			serial, err := cdc.EncodeSet(set)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				par, err := cdc.Encode(context.Background(), set, EncodeOptions{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				checkSameResult(t, "K="+itoa(k)+" p="+itoa(patterns)+" w="+itoa(w), par, serial)
			}
		}
	}
}

// FuzzEncodeDifferential lets the fuzzer hunt for inputs where the
// word-parallel and reference encoders disagree.
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
	})
}

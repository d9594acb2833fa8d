package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/tcube"
)

// kernelKs are the block sizes with specialized kernels.
var kernelKs = []int{4, 8, 16, 32}

// forceGeneric returns a shallow copy of c with every per-K kernel
// replaced by the generic path: encodeGeneric encodes, and the decode
// kernel is dropped. Used as the differential oracle.
func forceGeneric(c *Codec) *Codec {
	g := *c
	g.kenc, g.klut = encodeGeneric, nil
	return &g
}

func TestKernelInstalled(t *testing.T) {
	for _, k := range kernelKs {
		if c := mustCodec(t, k); !c.hasDecodeKernel() {
			t.Fatalf("K=%d: decode kernel not installed", k)
		}
	}
	for _, k := range []int{2, 6, 10, 64, 130} {
		c := mustCodec(t, k)
		if c.kenc == nil || c.hasDecodeKernel() {
			t.Fatalf("K=%d: want the generic encoder and no decode kernel (enc=%v dec=%v)", k, c.kenc != nil, c.hasDecodeKernel())
		}
	}
}

// TestCaseTabMatchesClassify proves the 16-entry flag table and the
// cube-level Classify agree on every K-bit block value, exhaustively
// for K=4 over all 3^4 trit blocks.
func TestCaseTabMatchesClassify(t *testing.T) {
	const k = 4
	for code := 0; code < 81; code++ {
		c := bitvec.NewCube(k)
		v := code
		for i := 0; i < k; i++ {
			c.Set(i, bitvec.Trit(v%3))
			v /= 3
		}
		want := Classify(c, 0, k)
		care, val := c.RawWords()
		bc, bv := care[0], val[0]
		zeros := bc &^ bv
		const h = 2
		const lh = uint64(1)<<h - 1
		idx := b2i(bv&lh == 0) | b2i(zeros&lh == 0)<<1 |
			b2i(bv>>h == 0)<<2 | b2i(zeros>>h == 0)<<3
		if got := caseTab[idx]; got != want {
			t.Fatalf("block %s: caseTab %v, Classify %v", c, got, want)
		}
	}
}

// TestKernelEncodeMatchesGeneric pins the per-K encode kernels
// bit-identical to the generic word path, across widths that exercise
// whole words, partial words, the all-zero-word batch, and trailing
// partial blocks — with both the default and a frequency-directed
// assignment.
func TestKernelEncodeMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, k := range kernelKs {
		cdc := mustCodec(t, k)
		gen := forceGeneric(cdc)
		widths := []int{1, k - 1, k, k + 1, 63, 64, 65, 64 + k, 4*64 + 3, 1000}
		for _, width := range widths {
			for _, xd := range []float64{0, 0.3, 0.9, 1} {
				set := tcube.NewSet("kern", width)
				for i := 0; i < 9; i++ {
					set.MustAppend(diffCube(rng, width, xd))
				}
				fast, err := cdc.EncodeSet(set)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := gen.EncodeSet(set)
				if err != nil {
					t.Fatal(err)
				}
				label := "K=" + itoa(k) + " w=" + itoa(width)
				checkSameResult(t, label, fast, ref)

				fd, err := NewWithAssignment(k, FrequencyDirected(fast.Counts))
				if err != nil {
					t.Fatal(err)
				}
				fastFD, err := fd.EncodeSet(set)
				if err != nil {
					t.Fatal(err)
				}
				refFD, err := forceGeneric(fd).EncodeSet(set)
				if err != nil {
					t.Fatal(err)
				}
				checkSameResult(t, label+" fd", fastFD, refFD)
			}
		}
	}
}

// TestKernelDecodeMatchesGeneric round-trips kernel-encoded streams
// through both decoders and pins identical output.
func TestKernelDecodeMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, k := range kernelKs {
		cdc := mustCodec(t, k)
		gen := forceGeneric(cdc)
		for _, width := range []int{1, k, 63, 65, 300} {
			set := tcube.NewSet("kern", width)
			for i := 0; i < 7; i++ {
				set.MustAppend(diffCube(rng, width, 0.5))
			}
			enc, err := cdc.EncodeSet(set)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := cdc.DecodeSet(enc.Stream, width, set.Len())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := gen.DecodeSet(enc.Stream, width, set.Len())
			if err != nil {
				t.Fatal(err)
			}
			if !fast.Equal(ref) {
				t.Fatalf("K=%d w=%d: kernel and generic decodes differ", k, width)
			}
			if !set.Covers(fast) {
				t.Fatalf("K=%d w=%d: decode flipped a specified bit", k, width)
			}

			flat := set.Flatten()
			encC, err := cdc.EncodeCube(flat)
			if err != nil {
				t.Fatal(err)
			}
			fastC, err := cdc.DecodeCube(encC.Stream, flat.Len())
			if err != nil {
				t.Fatal(err)
			}
			refC, err := gen.DecodeCube(encC.Stream, flat.Len())
			if err != nil {
				t.Fatal(err)
			}
			if !fastC.Equal(refC) {
				t.Fatalf("K=%d w=%d: kernel and generic cube decodes differ", k, width)
			}
		}
	}
}

// TestKernelDecodeHostileMatchesGeneric mutilates valid streams and
// asserts the kernel codec reports byte-identical errors to the
// generic one, in DecodeSet and in CountsOfStream: the fast path must
// abandon anything suspicious and let the generic decoder classify it.
func TestKernelDecodeHostileMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, k := range kernelKs {
		cdc := mustCodec(t, k)
		gen := forceGeneric(cdc)
		width := 2*k + 3
		set := tcube.NewSet("hostile", width)
		for i := 0; i < 5; i++ {
			set.MustAppend(diffCube(rng, width, 0.4))
		}
		enc, err := cdc.EncodeSet(set)
		if err != nil {
			t.Fatal(err)
		}
		stream := enc.Stream

		mutants := make([]*bitvec.Cube, 0, 40)
		// Truncations, including mid-block.
		for _, cut := range []int{0, 1, stream.Len() / 2, stream.Len() - 1} {
			if cut >= 0 && cut <= stream.Len() {
				mutants = append(mutants, stream.Slice(0, cut))
			}
		}
		// Trailing garbage after the final pattern.
		b := bitvec.NewCubeBuilder(stream.Len() + 3)
		b.AppendCube(stream)
		b.AppendRun(bitvec.One, 3)
		mutants = append(mutants, b.Build())
		// Random single-trit corruptions (bit flips and X injection).
		for i := 0; i < 30 && stream.Len() > 0; i++ {
			m := stream.Clone()
			pos := rng.Intn(m.Len())
			m.Set(pos, bitvec.Trit(rng.Intn(3)))
			mutants = append(mutants, m)
		}

		mutants = append(mutants, stream)
		for mi, m := range mutants {
			// The container validation walk: same counts, same error.
			fastCounts, fastErr := CountsOfStream(cdc, m, enc.Blocks)
			refCounts, refErr := CountsOfStream(gen, m, enc.Blocks)
			if fmt.Sprint(fastErr) != fmt.Sprint(refErr) || fastCounts != refCounts {
				t.Fatalf("K=%d mutant %d: CountsOfStream kernel %v %v, generic %v %v",
					k, mi, fastCounts, fastErr, refCounts, refErr)
			}
			if m == stream && (refErr != nil || refCounts != enc.Counts) {
				t.Fatalf("K=%d: CountsOfStream of the valid stream: %v %v, want %v", k, refCounts, refErr, enc.Counts)
			}

			fastSet, fastErr := cdc.DecodeSet(m, width, set.Len())
			refSet, refErr := gen.DecodeSet(m, width, set.Len())
			if (fastErr == nil) != (refErr == nil) {
				t.Fatalf("K=%d mutant %d: kernel err %v, generic err %v", k, mi, fastErr, refErr)
			}
			if fastErr != nil {
				if fastErr.Error() != refErr.Error() {
					t.Fatalf("K=%d mutant %d: error text differs:\n kernel  %v\n generic %v", k, mi, fastErr, refErr)
				}
				continue
			}
			if !fastSet.Equal(refSet) {
				t.Fatalf("K=%d mutant %d: decoded sets differ", k, mi)
			}
		}
	}
}

// FuzzKernelDifferential hunts for disagreements between the per-K
// kernels and the generic path on both encode and decode, plus error
// equivalence (DecodeCube and CountsOfStream) on arbitrary, mostly
// invalid, streams.
func FuzzKernelDifferential(f *testing.F) {
	f.Add("0000X1X011111111", uint8(0), "110")
	f.Add("XXXXXXXX01", uint8(1), "")
	f.Add("", uint8(2), "1")
	f.Fuzz(func(t *testing.T, cubeTxt string, kSel uint8, streamTxt string) {
		k := kernelKs[int(kSel)%len(kernelKs)]
		cdc, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		gen := forceGeneric(cdc)
		flat, err := bitvec.ParseCube(cubeTxt)
		if err != nil {
			return
		}
		fast, err := cdc.EncodeCube(flat)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := gen.EncodeCube(flat)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Stream.Equal(ref.Stream) || fast.Counts != ref.Counts {
			t.Fatalf("K=%d: encoders disagree on %q", k, cubeTxt)
		}
		fd, fe := cdc.DecodeCube(fast.Stream, flat.Len())
		gd, ge := gen.DecodeCube(fast.Stream, flat.Len())
		if (fe == nil) != (ge == nil) || (fe != nil && fe.Error() != ge.Error()) {
			t.Fatalf("K=%d: decode errs differ: %v vs %v", k, fe, ge)
		}
		if fe == nil && !fd.Equal(gd) {
			t.Fatalf("K=%d: decodes differ", k)
		}
		// Arbitrary stream: only error equivalence matters.
		if hostile, err := bitvec.ParseCube(streamTxt); err == nil {
			fd, fe = cdc.DecodeCube(hostile, flat.Len())
			gd, ge = gen.DecodeCube(hostile, flat.Len())
			if (fe == nil) != (ge == nil) || (fe != nil && fe.Error() != ge.Error()) {
				t.Fatalf("K=%d hostile: errs differ: %v vs %v", k, fe, ge)
			}
			if fe == nil && !fd.Equal(gd) {
				t.Fatalf("K=%d hostile: decodes differ", k)
			}
			blocks := (flat.Len() + k - 1) / k
			fc, fe := CountsOfStream(cdc, hostile, blocks)
			gc, ge := CountsOfStream(gen, hostile, blocks)
			if fmt.Sprint(fe) != fmt.Sprint(ge) || fc != gc {
				t.Fatalf("K=%d hostile: CountsOfStream %v %v vs %v %v", k, fc, fe, gc, ge)
			}
		}
	})
}

// TestEncodeWordsC1Batch drives encodeWords' all-zero-word C1 batch on
// both sides of its guard: at K=4 a word holds 16 blocks, so a 4-bit C1
// fills the batched append exactly (64 bits) and a 5-bit C1 overflows
// it, leaving every word to the per-block walk. All-X, all-0 and mixed
// rows at widths around one word are pinned to encodeGeneric and the
// trit-level reference.
func TestEncodeWordsC1Batch(t *testing.T) {
	for _, tc := range []struct {
		c1    int
		batch bool
	}{{4, true}, {5, false}} {
		a, err := AssignmentFromLengths([NumCases]int{tc.c1, 2, 3, 3, 3, 4, 4, 4, 4})
		if err != nil {
			t.Fatal(err)
		}
		cdc, err := NewWithAssignment(4, a)
		if err != nil {
			t.Fatal(err)
		}
		if cdc.kc1ok != tc.batch {
			t.Fatalf("|C1|=%d: kc1ok %v, want %v", tc.c1, cdc.kc1ok, tc.batch)
		}
		gen := forceGeneric(cdc)
		for _, width := range []int{63, 64, 65, 1000} {
			set := tcube.NewSet("c1", width)
			for ri, row := range c1BatchRows(width) {
				set.MustAppend(row)
				label := fmt.Sprintf("|C1|=%d w=%d row %d", tc.c1, width, ri)
				fast, err := cdc.EncodeCube(row)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := cdc.EncodeCubeReference(row)
				if err != nil {
					t.Fatal(err)
				}
				checkSameResult(t, label, fast, ref)
			}
			label := fmt.Sprintf("|C1|=%d w=%d", tc.c1, width)
			fast, err := cdc.EncodeSet(set)
			if err != nil {
				t.Fatal(err)
			}
			want, err := gen.EncodeSet(set)
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, label+" generic", fast, want)
			if want, err = cdc.EncodeSetReference(set); err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, label+" reference", fast, want)
		}
	}
}

// c1BatchRows returns an all-X row, an all-0 row (both all-zero val
// words throughout) and a mixed row whose words alternate between
// all-zero val (0s and Xs) and words holding 1s.
func c1BatchRows(width int) []*bitvec.Cube {
	allX, all0, mixed := bitvec.NewCube(width), bitvec.NewCube(width), bitvec.NewCube(width)
	for i := 0; i < width; i++ {
		all0.Set(i, bitvec.Zero)
		switch {
		case i/64%2 == 0 && i%3 == 0:
			mixed.Set(i, bitvec.Zero)
		case i/64%2 == 1:
			mixed.Set(i, bitvec.Trit(i%3))
		}
	}
	return []*bitvec.Cube{allX, all0, mixed}
}

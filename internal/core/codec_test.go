package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/tcube"
)

func mustCube(t *testing.T, s string) *bitvec.Cube {
	t.Helper()
	c, err := bitvec.ParseCube(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustCodec(t *testing.T, k int) *Codec {
	t.Helper()
	c, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadK(t *testing.T) {
	for _, k := range []int{-2, 0, 1, 3, 7, MaxK + 2} {
		if _, err := New(k); err == nil {
			t.Errorf("K=%d accepted", k)
		}
	}
	for _, k := range []int{2, 4, 8, 12, 16, 32, 48, 64, MaxK} {
		if _, err := New(k); err != nil {
			t.Errorf("K=%d rejected: %v", k, err)
		}
	}
}

func TestClassifyTableI(t *testing.T) {
	// Table I patterns for K=8, plus the X-compatibility rules from §II.
	cases := []struct {
		in   string
		want Case
	}{
		{"00000000", CaseAll0},
		{"0000XXXX", CaseAll0},
		{"XXXX0000", CaseAll0},
		{"XXXXXXXX", CaseAll0}, // all-X matches row 1 first
		{"11111111", CaseAll1},
		{"1111XXXX", CaseAll1}, // right all-X is 0-compatible too, but row order: l1&&r0? r0 true -> C4? see below
		{"00001111", Case0Then1},
		{"11110000", Case1Then0},
		{"0000X1X0", Case0ThenMis},
		{"01X00000", CaseMisThen0},
		{"111101X0", Case1ThenMis},
		{"10X01111", CaseMisThen1},
		{"01X010X0", CaseMisMis},
	}
	// Row-order subtlety: "1111XXXX": l0 false, l1 true, r0 true, r1 true.
	// Row 2 (l1&&r1) precedes row 4 (l1&&r0), so C2 is correct.
	for _, tc := range cases {
		c := mustCube(t, tc.in)
		if got := Classify(c, 0, 8); got != tc.want {
			t.Errorf("Classify(%s) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestClassifyPriorityXHalves(t *testing.T) {
	// left all-X, right mismatch: l0 wins -> C5 not C6.
	if got := Classify(mustCube(t, "XXXX01X0"), 0, 8); got != Case0ThenMis {
		t.Fatalf("got %s, want C5", got)
	}
	// left mismatch, right all-X: r0 wins -> C6 not C8.
	if got := Classify(mustCube(t, "01X0XXXX"), 0, 8); got != CaseMisThen0 {
		t.Fatalf("got %s, want C6", got)
	}
}

func TestClassifyPaddingBeyondEnd(t *testing.T) {
	// 5 bits classified as an 8-bit block: tail is X padding.
	if got := Classify(mustCube(t, "00000"), 0, 8); got != CaseAll0 {
		t.Fatalf("got %s, want C1", got)
	}
	if got := Classify(mustCube(t, "11111"), 0, 8); got != CaseAll1 {
		t.Fatalf("got %s, want C2", got)
	}
}

func TestEncodeCubeKnownStream(t *testing.T) {
	// Worked example, K=8, default codes:
	// block1 = 00000000 -> C1 -> "0"
	// block2 = 0000X1X0 -> C5 -> "11100" + "X1X0"
	// block3 = 11111111 -> C2 -> "10"
	cdc := mustCodec(t, 8)
	in := mustCube(t, "000000000000X1X011111111")
	r, err := cdc.EncodeCube(in)
	if err != nil {
		t.Fatal(err)
	}
	want := "0" + "11100" + "X1X0" + "10"
	if got := r.Stream.String(); got != want {
		t.Fatalf("stream = %q, want %q", got, want)
	}
	if r.Counts.N(CaseAll0) != 1 || r.Counts.N(Case0ThenMis) != 1 || r.Counts.N(CaseAll1) != 1 {
		t.Fatalf("counts = %v", r.Counts)
	}
	if r.LeftoverX != 2 {
		t.Fatalf("LeftoverX = %d, want 2", r.LeftoverX)
	}
	if r.CompressedBits() != 12 || r.OrigBits != 24 {
		t.Fatalf("sizes: %d/%d", r.CompressedBits(), r.OrigBits)
	}
	if cr := r.CR(); cr != 50 {
		t.Fatalf("CR = %v, want 50", cr)
	}

	dec, err := cdc.DecodeCube(r.Stream, r.OrigBits)
	if err != nil {
		t.Fatal(err)
	}
	if dec.String() != "000000000000X1X011111111" {
		t.Fatalf("decode = %q", dec.String())
	}
}

func TestEncodeDecodeMatchedHalvesFillXWithConstant(t *testing.T) {
	cdc := mustCodec(t, 8)
	in := mustCube(t, "X0X0X1X1")
	r, err := cdc.EncodeCube(in)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts.N(Case0Then1) != 1 {
		t.Fatalf("counts = %v", r.Counts)
	}
	dec, err := cdc.DecodeCube(r.Stream, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Matched halves decode to constants: X positions are consumed.
	if dec.String() != "00001111" {
		t.Fatalf("decode = %q", dec.String())
	}
	if !in.Covers(dec) {
		t.Fatal("decode contradicts a specified bit")
	}
}

func TestEncodeSetRoundTrip(t *testing.T) {
	src := strings.Join([]string{
		"0000000000",
		"11111XXXXX",
		"01X0110X10",
		"XXXXXXXXXX",
	}, "\n")
	set, err := tcube.Read("rt", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{4, 6, 8, 10, 12, 16} {
		cdc := mustCodec(t, k)
		r, err := cdc.EncodeSet(set)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		dec, err := cdc.DecodeSet(r.Stream, set.Width(), set.Len())
		if err != nil {
			t.Fatalf("K=%d decode: %v", k, err)
		}
		if !set.Covers(dec) {
			t.Fatalf("K=%d: decoded set contradicts source", k)
		}
		if r.OrigBits != set.Bits() {
			t.Fatalf("K=%d OrigBits=%d", k, r.OrigBits)
		}
		if want := CompressedSize(k, cdc.Assignment(), r.Counts); r.CompressedBits() != want {
			t.Fatalf("K=%d: stream %d bits, analytic %d", k, r.CompressedBits(), want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cdc := mustCodec(t, 8)
	r, err := cdc.EncodeCube(mustCube(t, "0000X1X011111111"))
	if err != nil {
		t.Fatal(err)
	}
	// Truncated stream.
	trunc := r.Stream.Slice(0, r.Stream.Len()-3)
	if _, err := cdc.DecodeCube(trunc, 16); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: %v", err)
	}
	// Trailing garbage.
	long := bitvec.NewCube(r.Stream.Len() + 2)
	for i := 0; i < r.Stream.Len(); i++ {
		long.Set(i, r.Stream.Get(i))
	}
	long.Set(r.Stream.Len(), bitvec.Zero)
	long.Set(r.Stream.Len()+1, bitvec.One)
	if _, err := cdc.DecodeCube(long, 16); err == nil {
		t.Fatal("trailing bits accepted")
	}
	// X inside a codeword.
	bad := r.Stream.Clone()
	bad.Set(0, bitvec.X)
	if _, err := cdc.DecodeCube(bad, 16); !errors.Is(err, ErrBadCodeword) {
		t.Fatalf("X codeword: %v", err)
	}
	// Negative geometry.
	if _, err := cdc.DecodeCube(r.Stream, -1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := cdc.DecodeSet(r.Stream, -1, 2); err == nil {
		t.Fatal("negative width accepted")
	}
}

func TestDecodeResultDispatch(t *testing.T) {
	cdc := mustCodec(t, 4)
	set := tcube.NewSet("d", 6)
	set.MustAppend(mustCube(t, "01X0X1"))
	rs, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	gotSet, gotCube, err := cdc.Decode(rs)
	if err != nil || gotSet == nil || gotCube != nil {
		t.Fatalf("set dispatch: %v %v %v", gotSet, gotCube, err)
	}
	rc, err := cdc.EncodeCube(mustCube(t, "01X0X1"))
	if err != nil {
		t.Fatal(err)
	}
	gotSet, gotCube, err = cdc.Decode(rc)
	if err != nil || gotSet != nil || gotCube == nil {
		t.Fatalf("cube dispatch: %v %v %v", gotSet, gotCube, err)
	}
	other := mustCodec(t, 8)
	if _, _, err := other.Decode(rc); err == nil {
		t.Fatal("K mismatch accepted")
	}
}

func TestEmptyInputs(t *testing.T) {
	cdc := mustCodec(t, 8)
	r, err := cdc.EncodeCube(bitvec.NewCube(0))
	if err != nil || r.Blocks != 0 || r.CompressedBits() != 0 {
		t.Fatalf("empty encode: %+v %v", r, err)
	}
	if r.CR() != 0 || r.LXPercent() != 0 {
		t.Fatal("empty metrics should be 0")
	}
	dec, err := cdc.DecodeCube(r.Stream, 0)
	if err != nil || dec.Len() != 0 {
		t.Fatalf("empty decode: %v", err)
	}
}

// Core round-trip property: for random ternary data, any K, default or
// frequency-directed assignment:
//  1. decode(encode(x)) never contradicts a specified bit of x,
//  2. decoded leftover X count equals Result.LeftoverX,
//  3. measured |T_E| equals the analytic closed form,
//  4. CR matches CRFromCounts.
func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8, fd bool) bool {
		k := (int(kRaw%16) + 1) * 2
		n := int(nRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		flat := bitvec.NewCube(n)
		for i := 0; i < n; i++ {
			flat.Set(i, bitvec.Trit(rng.Intn(3)))
		}
		cdc := mustQuickCodec(k, fd, flat)
		r, err := cdc.EncodeCube(flat)
		if err != nil {
			return false
		}
		if r.CompressedBits() != CompressedSize(k, cdc.Assignment(), r.Counts) {
			return false
		}
		if r.CR() != CRFromCounts(r.OrigBits, k, cdc.Assignment(), r.Counts) {
			return false
		}
		dec, err := cdc.DecodeCube(r.Stream, n)
		if err != nil {
			return false
		}
		if !flat.Covers(dec) {
			return false
		}
		// Leftover X in the stream >= X in the decoded unpadded output
		// (padding X lives only in the stream).
		return r.LeftoverX >= dec.XCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func mustQuickCodec(k int, fd bool, flat *bitvec.Cube) *Codec {
	cdc, err := New(k)
	if err != nil {
		panic(err)
	}
	if fd {
		// Derive a frequency-directed assignment from a first pass.
		r, err := cdc.EncodeCube(flat)
		if err != nil {
			panic(err)
		}
		cdc, err = NewWithAssignment(k, FrequencyDirected(r.Counts))
		if err != nil {
			panic(err)
		}
	}
	return cdc
}

// Fully specified data must round-trip exactly.
func TestPropertySpecifiedDataExactRoundTrip(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := (int(kRaw%16) + 1) * 2
		n := int(nRaw%96) + 1
		rng := rand.New(rand.NewSource(seed))
		flat := bitvec.NewCube(n)
		for i := 0; i < n; i++ {
			flat.Set(i, bitvec.Trit(rng.Intn(2)))
		}
		cdc, err := New(k)
		if err != nil {
			return false
		}
		r, err := cdc.EncodeCube(flat)
		if err != nil {
			return false
		}
		dec, err := cdc.DecodeCube(r.Stream, n)
		return err == nil && dec.Equal(flat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCountsHelpers(t *testing.T) {
	var n Counts
	n.Add(CaseAll0)
	n.Add(CaseAll0)
	n.Add(CaseMisMis)
	if n.N(CaseAll0) != 2 || n.N(CaseMisMis) != 1 || n.Total() != 3 {
		t.Fatalf("counts = %v", n)
	}
}

func TestBestK(t *testing.T) {
	set := tcube.NewSet("bk", 32)
	c := bitvec.NewCube(32)
	for i := 0; i < 8; i++ {
		c.Set(i, bitvec.One)
	}
	set.MustAppend(c)
	ks := []int{4, 8, 16, 32}
	bestK, bestCR := BestK(ks, DefaultAssignment(), func(k int) (int, Counts) {
		cdc := mustQuickCodec(k, false, nil)
		_ = cdc
		cd, _ := New(k)
		r, _ := cd.EncodeSet(set)
		return r.OrigBits, r.Counts
	})
	if bestK == 0 || bestCR < -1000 {
		t.Fatalf("BestK = %d, %f", bestK, bestCR)
	}
	// Exhaustive check against direct evaluation.
	for _, k := range ks {
		cd, _ := New(k)
		r, _ := cd.EncodeSet(set)
		if r.CR() > bestCR+1e-9 {
			t.Fatalf("BestK missed K=%d with CR %f > %f", k, r.CR(), bestCR)
		}
	}
}

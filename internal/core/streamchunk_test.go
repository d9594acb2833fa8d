package core_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// chunkedOutcome is what a streamed v4 decode emits: the 01X rows up
// to the first fault, the fault's text and class ("" at a clean end),
// and the decoder's final Patterns and TritsConsumed.
type chunkedOutcome struct {
	rows     []string
	err      string
	class    string
	patterns int
	consumed int
}

// decodeMode is one of the three decode paths the differential tests
// hold against each other.
type decodeMode int

const (
	modeText    decodeMode = iota // AppendText, the ninecd /decode loop
	modePlanes                    // ReadPattern, then the cube's text
	modeGeneric                   // ReadPattern with the kernels disabled
)

var decodeModes = []decodeMode{modeText, modePlanes, modeGeneric}

func (m decodeMode) String() string {
	return [...]string{"text kernel", "plane kernel", "generic"}[m]
}

// decodeChunked streams a v4 container through ChunkReader and
// StreamDecoder as the ninecd /decode handler does, along the given
// path. ok=false means the header was rejected before a decoder
// existed.
func decodeChunked(data []byte, mode decodeMode) (o chunkedOutcome, ok bool) {
	lim := robust.DecodeLimits{}
	chr, err := container.NewChunkReader(bytes.NewReader(data), lim)
	if err != nil {
		return o, false
	}
	h := chr.Header()
	cdc, err := core.NewWithAssignment(h.K, h.Assign)
	if err != nil {
		return o, false
	}
	if mode == modeGeneric {
		cdc = core.ForceGeneric(cdc)
	}
	dec, err := cdc.NewStreamDecoder(chr, h.Width, lim)
	if err != nil {
		return o, false
	}
	var buf []byte
	for {
		if mode == modeText {
			buf, err = dec.AppendText(buf[:0])
		} else {
			var p *bitvec.Cube
			if p, err = dec.ReadPattern(); p != nil {
				buf = p.AppendTextRange(buf[:0], 0, p.Len())
			}
		}
		if err != nil {
			if err != io.EOF {
				o.err, o.class = err.Error(), robust.Classify(err)
			}
			o.patterns, o.consumed = dec.Patterns(), dec.TritsConsumed()
			return o, true
		}
		o.rows = append(o.rows, string(buf))
	}
}

// decodeChunked3 decodes data along all three paths and reports the
// first disagreement in header verdict, rows, error text or accounting.
func decodeChunked3(data []byte) (chunkedOutcome, bool, error) {
	ref, ok := decodeChunked(data, modeGeneric)
	for _, mode := range decodeModes[:2] {
		got, gotOK := decodeChunked(data, mode)
		if gotOK != ok {
			return ref, ok, fmt.Errorf("header verdicts differ: %v %v, generic %v", mode, gotOK, ok)
		}
		if got.err != ref.err || len(got.rows) != len(ref.rows) {
			return ref, ok, fmt.Errorf("%v emitted %d patterns then %q, generic %d then %q",
				mode, len(got.rows), got.err, len(ref.rows), ref.err)
		}
		for i := range got.rows {
			if got.rows[i] != ref.rows[i] {
				return ref, ok, fmt.Errorf("%v: pattern %d differs", mode, i)
			}
		}
		if got.patterns != ref.patterns || got.consumed != ref.consumed {
			return ref, ok, fmt.Errorf("%v ended at %d patterns / %d trits, generic %d / %d",
				mode, got.patterns, got.consumed, ref.patterns, ref.consumed)
		}
	}
	return ref, ok, nil
}

// chunkedContainer encodes a random set and frames it as v4.
func chunkedContainer(t testing.TB, k, patterns, width int, seed int64) ([]byte, *tcube.Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := tcube.NewSet("chunked", width)
	for i := 0; i < patterns; i++ {
		c := bitvec.NewCube(width)
		for j := 0; j < width; j++ {
			if rng.Intn(2) == 0 {
				c.Set(j, bitvec.Trit(rng.Intn(2)))
			}
		}
		set.MustAppend(c)
	}
	cdc, err := core.New(k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := container.WriteVersion(&buf, res, container.Magic4); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), set
}

// TestStreamDecodeChunkCRCMidStream corrupts a chunk in the middle of a
// multi-chunk container: the kernel decoder prefetches across chunk
// boundaries, yet the text and plane kernels must emit exactly the
// patterns the generic decoder emits before the bad chunk and then
// report the same checksum error.
func TestStreamDecodeChunkCRCMidStream(t *testing.T) {
	for _, k := range []int{4, 8, 16, 32} {
		data, set := chunkedContainer(t, k, 150, 1000, int64(k))
		for _, at := range []int{len(data) / 3, len(data) / 2, 2 * len(data) / 3} {
			bad := bytes.Clone(data)
			bad[at] ^= 0x10
			label := fmt.Sprintf("K=%d flip at byte %d", k, at)
			ref, ok, err := decodeChunked3(bad)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !ok {
				t.Fatalf("%s: header rejected", label)
			}
			if !strings.Contains(ref.err, "CRC32C") || len(ref.rows) == 0 || len(ref.rows) >= set.Len() {
				t.Fatalf("%s: want a checksum fault after a partial prefix, got %d of %d patterns then %q",
					label, len(ref.rows), set.Len(), ref.err)
			}
		}
	}
}

// runSeeds returns K=8 v4 containers whose rows hold eight or more
// blocks, the rows on which textK8 tries its run table: sparse sets at
// widths 64, 67 and 200, one under a frequency-directed code, all-X
// rows of nine C1 blocks (a row ends one block after a run of eight),
// and that stream with an X inside a run's codeword and cut mid-run.
func runSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	encode := func(cdc *core.Codec, set *tcube.Set) *core.Result {
		res, err := cdc.EncodeSet(set)
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
	sparse := func(width int, seed int64) *tcube.Set {
		rng := rand.New(rand.NewSource(seed))
		set := tcube.NewSet("runs", width)
		for i := 0; i < 5; i++ {
			c := bitvec.NewCube(width)
			for j := 0; j < width; j++ {
				if rng.Intn(20) == 0 {
					c.Set(j, bitvec.Trit(rng.Intn(2)))
				}
			}
			set.MustAppend(c)
		}
		return set
	}
	def, err := core.New(8)
	if err != nil {
		tb.Fatal(err)
	}
	var results []*core.Result
	for _, width := range []int{64, 67, 200} {
		results = append(results, encode(def, sparse(width, int64(width))))
	}
	fd, err := core.NewWithAssignment(8, core.FrequencyDirected(results[2].Counts))
	if err != nil {
		tb.Fatal(err)
	}
	results = append(results, encode(fd, sparse(200, 200)))
	allX := tcube.NewSet("allx", 67)
	for i := 0; i < 4; i++ {
		allX.MustAppend(bitvec.NewCube(67))
	}
	runs := encode(def, allX)
	xin, cut := *runs, *runs
	xin.Stream = runs.Stream.Clone()
	xin.Stream.Set(3, bitvec.X)
	cut.Stream = runs.Stream.Slice(0, 5)
	results = append(results, runs, &xin, &cut)
	var out [][]byte
	for _, r := range results {
		data, err := container.MarshalV4(r)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestRunSeedsDecode: the run seeds decode alike along the three paths,
// the valid ones in full and the X and cut ones to a classified fault.
func TestRunSeedsDecode(t *testing.T) {
	seeds := runSeeds(t)
	for i, data := range seeds {
		ref, ok, err := decodeChunked3(data)
		if err != nil || !ok {
			t.Fatalf("seed %d: header ok %v, %v", i, ok, err)
		}
		if faulty := i >= len(seeds)-2; faulty != (ref.err != "") || faulty && ref.class == "" {
			t.Fatalf("seed %d: %d patterns then %q (class %q)", i, len(ref.rows), ref.err, ref.class)
		}
	}
}

// FuzzStreamDecodeDifferential feeds arbitrary bytes through
// ChunkReader and StreamDecoder along the text kernel, the plane kernel
// and the generic decoder: all three must emit the same patterns, the
// same classified error and the same accounting, and none may panic.
func FuzzStreamDecodeDifferential(f *testing.F) {
	// Kernel and generic block sizes, at widths below K and not a
	// multiple of it.
	for _, k := range []int{2, 4, 6, 8, 16, 32, 130} {
		for _, width := range []int{k - 1, 2*k + 3} {
			data, _ := chunkedContainer(f, k, 5, width, int64(k))
			f.Add(data)
			f.Add(data[:len(data)-7])
			flipped := bytes.Clone(data)
			flipped[len(flipped)/2] ^= 1
			f.Add(flipped)
		}
	}
	for _, data := range runSeeds(f) {
		f.Add(data)
	}
	f.Add([]byte("N9C4"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, _, err := decodeChunked3(data)
		if err != nil {
			t.Fatal(err)
		}
		if ref.err != "" && ref.class == "" {
			t.Fatalf("unclassified error %q", ref.err)
		}
	})
}

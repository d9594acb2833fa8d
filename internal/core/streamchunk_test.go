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
// to the first fault, and the fault's text and class ("" at a clean
// end).
type chunkedOutcome struct {
	rows  []string
	err   string
	class string
}

// decodeChunked streams a v4 container through ChunkReader and
// StreamDecoder exactly as the ninecd /decode handler does; generic
// disables the per-K kernels. ok=false means the header was rejected
// before a decoder existed.
func decodeChunked(data []byte, generic bool) (o chunkedOutcome, ok bool) {
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
	if generic {
		cdc = core.ForceGeneric(cdc)
	}
	dec, err := cdc.NewStreamDecoder(chr, h.Width, lim)
	if err != nil {
		return o, false
	}
	for {
		p, err := dec.ReadPattern()
		if err == io.EOF {
			return o, true
		}
		if err != nil {
			o.err, o.class = err.Error(), robust.Classify(err)
			return o, true
		}
		o.rows = append(o.rows, p.String())
	}
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
// boundaries, yet it must emit exactly the patterns the generic decoder
// emits before the bad chunk and then report the same checksum error.
func TestStreamDecodeChunkCRCMidStream(t *testing.T) {
	for _, k := range []int{4, 8, 16, 32} {
		data, set := chunkedContainer(t, k, 150, 1000, int64(k))
		for _, at := range []int{len(data) / 3, len(data) / 2, 2 * len(data) / 3} {
			bad := bytes.Clone(data)
			bad[at] ^= 0x10
			fast, ok1 := decodeChunked(bad, false)
			ref, ok2 := decodeChunked(bad, true)
			label := fmt.Sprintf("K=%d flip at byte %d", k, at)
			if !ok1 || !ok2 {
				t.Fatalf("%s: header rejected", label)
			}
			if fast.err != ref.err || len(fast.rows) != len(ref.rows) {
				t.Fatalf("%s: kernel emitted %d patterns then %q, generic %d then %q",
					label, len(fast.rows), fast.err, len(ref.rows), ref.err)
			}
			for i := range fast.rows {
				if fast.rows[i] != ref.rows[i] {
					t.Fatalf("%s: pattern %d differs", label, i)
				}
			}
			if !strings.Contains(fast.err, "CRC32C") || len(fast.rows) == 0 || len(fast.rows) >= set.Len() {
				t.Fatalf("%s: want a checksum fault after a partial prefix, got %d of %d patterns then %q",
					label, len(fast.rows), set.Len(), fast.err)
			}
		}
	}
}

// FuzzStreamDecodeDifferential feeds arbitrary bytes through
// ChunkReader and StreamDecoder with and without the per-K kernels:
// both must emit the same patterns and the same classified error, and
// neither may panic.
func FuzzStreamDecodeDifferential(f *testing.F) {
	for _, k := range []int{4, 8, 16, 32} {
		data, _ := chunkedContainer(f, k, 5, 2*k+3, int64(k))
		f.Add(data)
		f.Add(data[:len(data)-7])
		flipped := bytes.Clone(data)
		flipped[len(flipped)/2] ^= 1
		f.Add(flipped)
	}
	f.Add([]byte("N9C4"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ok1 := decodeChunked(data, false)
		ref, ok2 := decodeChunked(data, true)
		if ok1 != ok2 {
			t.Fatalf("header verdicts differ: kernel %v, generic %v", ok1, ok2)
		}
		if fast.err != ref.err || len(fast.rows) != len(ref.rows) {
			t.Fatalf("kernel emitted %d patterns then %q, generic %d then %q",
				len(fast.rows), fast.err, len(ref.rows), ref.err)
		}
		for i := range fast.rows {
			if fast.rows[i] != ref.rows[i] {
				t.Fatalf("pattern %d differs", i)
			}
		}
		if ref.err != "" && ref.class == "" {
			t.Fatalf("unclassified error %q", ref.err)
		}
	})
}

package container

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// randomSet builds a random ternary set for the chunked-format tests.
func randomSet(patterns, width int, xPercent float64, seed int64) *tcube.Set {
	rng := rand.New(rand.NewSource(seed))
	s := tcube.NewSet("chunked", width)
	for i := 0; i < patterns; i++ {
		c := bitvec.NewCube(width)
		for j := 0; j < width; j++ {
			if rng.Float64() < xPercent/100 {
				c.Set(j, bitvec.X)
			} else if rng.Intn(2) == 0 {
				c.Set(j, bitvec.Zero)
			} else {
				c.Set(j, bitvec.One)
			}
		}
		s.MustAppend(c)
	}
	return s
}

// writeChunked encodes a set in memory and frames it as v4, returning
// the container bytes plus the encode Result.
func writeChunked(t *testing.T, cdc *core.Codec, set *tcube.Set) ([]byte, *core.Result) {
	t.Helper()
	want, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVersion(&buf, want, Magic4); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// TestChunkedRoundTrip: a multi-chunk v4 container reads back through
// both the whole-container path and the streaming path, identical to
// the in-memory encode. Bytes after the trailer are corruption on
// both paths, reported only after every chunk was delivered.
func TestChunkedRoundTrip(t *testing.T) {
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	// Large enough to span several chunks at DefaultChunkTrits.
	set := randomSet(700, 300, 40, 1)
	data, want := writeChunked(t, cdc, set)

	// Whole-container read path.
	back, diag, err := ReadWithOptions(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diag.Version != Magic4 || !diag.HeaderCRCOK || !diag.PayloadCRCOK {
		t.Fatalf("diag %+v", diag)
	}
	if !back.Stream.Equal(want.Stream) {
		t.Fatal("stream mismatch after chunked round trip")
	}
	if back.Patterns != want.Patterns || back.Width != want.Width ||
		back.Blocks != want.Blocks || back.OrigBits != want.OrigBits ||
		back.Counts != want.Counts || back.Name != set.Name {
		t.Fatalf("result mismatch: %+v vs %+v", back, want)
	}

	// Streaming read path: ChunkReader into StreamDecoder.
	chr, err := NewChunkReader(bytes.NewReader(data), robust.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if h := chr.Header(); h.K != 8 || h.Width != set.Width() || h.Name != set.Name {
		t.Fatalf("header %+v", h)
	}
	dec, err := cdc.NewStreamDecoder(chr, set.Width(), robust.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cdc.DecodeSet(want.Stream, set.Width(), set.Len())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		p, err := dec.ReadPattern()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("pattern %d: %v", n, err)
		}
		if !p.Equal(ref.Cube(n)) {
			t.Fatalf("pattern %d differs from reference decode", n)
		}
		n++
	}
	if n != set.Len() {
		t.Fatalf("decoded %d patterns, want %d", n, set.Len())
	}
	tr, ok := chr.Trailer()
	if !ok || tr.Patterns != set.Len() || tr.StreamBits != want.Stream.Len() {
		t.Fatalf("trailer %+v ok=%v", tr, ok)
	}

	junk := append(append([]byte(nil), data...), "JUNK"...)
	if _, err := Read(bytes.NewReader(junk)); !errors.Is(err, robust.ErrCorrupt) {
		t.Fatalf("trailing bytes: Read err %v, want ErrCorrupt", err)
	}
	chr, err = NewChunkReader(bytes.NewReader(junk), robust.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	trits := 0
	for {
		seg, err := chr.ReadStream()
		if err != nil {
			if !errors.Is(err, robust.ErrCorrupt) {
				t.Fatalf("trailing bytes: ChunkReader err %v, want ErrCorrupt", err)
			}
			break
		}
		trits += seg.Len()
	}
	if trits != want.Stream.Len() {
		t.Fatalf("trailing bytes: ChunkReader delivered %d of %d trits", trits, want.Stream.Len())
	}
	if _, ok := chr.Trailer(); ok {
		t.Fatal("trailing bytes: trailer reported as verified")
	}
	salv, diag, err := ReadWithOptions(bytes.NewReader(junk), Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if diag.StreamErr == nil || salv.Patterns != set.Len() || !salv.Stream.Equal(want.Stream) {
		t.Fatalf("trailing bytes: lenient salvage %d/%d patterns, fault %v", salv.Patterns, set.Len(), diag.StreamErr)
	}
}

// TestWriteVersionV4 covers the in-memory write path and rejects
// non-set results.
func TestWriteVersionV4(t *testing.T) {
	cdc, err := core.New(4)
	if err != nil {
		t.Fatal(err)
	}
	set := randomSet(9, 17, 30, 2)
	r, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVersion(&buf, r, Magic4); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Stream.Equal(r.Stream) || back.Counts != r.Counts {
		t.Fatal("v4 in-memory write does not round-trip")
	}

	cube, err := cdc.EncodeCube(bitvec.NewCube(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteVersion(&bytes.Buffer{}, cube, Magic4); err == nil {
		t.Fatal("bare-cube result accepted by v4")
	}
}

// TestChunkedTruncationEveryCut is the differential acceptance test:
// every strict prefix of a chunked container either fails with a
// classified error (strict) or salvages a verified prefix (lenient)
// whose patterns all match the source set — and nothing panics.
func TestChunkedTruncationEveryCut(t *testing.T) {
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	set := randomSet(40, 64, 35, 3)
	data, want := writeChunked(t, cdc, set)
	ref, err := cdc.DecodeSet(want.Stream, set.Width(), set.Len())
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(data); cut++ {
		_, _, err := ReadWithOptions(bytes.NewReader(data[:cut]), Options{})
		if err == nil {
			t.Fatalf("cut %d/%d: truncated container accepted", cut, len(data))
		}
		if !robust.IsClassified(err) {
			t.Fatalf("cut %d/%d: unclassified error %v", cut, len(data), err)
		}

		res, diag, err := ReadWithOptions(bytes.NewReader(data[:cut]), Options{Lenient: true})
		if err != nil {
			// Lenient still rejects cuts inside the header: no
			// trustworthy geometry means nothing to salvage.
			if !robust.IsClassified(err) {
				t.Fatalf("cut %d/%d lenient: unclassified error %v", cut, len(data), err)
			}
			continue
		}
		if diag.StreamErr == nil {
			t.Fatalf("cut %d/%d lenient: salvage without recorded fault", cut, len(data))
		}
		// Every salvaged pattern must match the source exactly. The
		// salvaged stream may end mid-pattern, so a partial decode must
		// still recover the reported pattern count — that count is
		// defined as the cleanly decodable prefix.
		if res.Patterns > 0 {
			got, derr := cdc.DecodeSetPartial(res.Stream, res.Width, res.Patterns)
			if got.Len() < res.Patterns {
				t.Fatalf("cut %d/%d: salvage decode recovered %d/%d: %v", cut, len(data), got.Len(), res.Patterns, derr)
			}
			for i := 0; i < res.Patterns; i++ {
				if !got.Cube(i).Equal(ref.Cube(i)) {
					t.Fatalf("cut %d/%d: salvaged pattern %d differs from reference", cut, len(data), i)
				}
			}
		}
	}
}

// TestChunkedBitFlipDetected: flipping any single byte in the payload
// region is detected (checksum or a downstream classified error), and
// lenient mode still returns only verified patterns.
func TestChunkedBitFlipDetected(t *testing.T) {
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	set := randomSet(30, 48, 25, 4)
	data, want := writeChunked(t, cdc, set)

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), data...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= 1 << uint(rng.Intn(8))
		res, diag, err := ReadWithOptions(bytes.NewReader(mut), Options{})
		if err == nil {
			// The only way a flip is acceptable silently is if it never
			// happened to verified content — impossible with full CRC
			// coverage of header, chunks and trailer.
			if !res.Stream.Equal(want.Stream) {
				t.Fatalf("flip at %d: corrupted stream accepted (diag %+v)", pos, diag)
			}
			t.Fatalf("flip at %d: accepted", pos)
		}
		if !robust.IsClassified(err) {
			t.Fatalf("flip at %d: unclassified error %v", pos, err)
		}
	}
}

// TestChunkReaderLimits: cumulative payload cap and oversized chunk
// counts classify correctly.
func TestChunkReaderLimits(t *testing.T) {
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	set := randomSet(200, 200, 50, 6)
	data, _ := writeChunked(t, cdc, set)

	_, err = NewChunkReader(bytes.NewReader(data), robust.DecodeLimits{MaxWidth: set.Width() - 1})
	if !errors.Is(err, robust.ErrLimitExceeded) {
		t.Fatalf("width over limit: %v", err)
	}

	chr, err := NewChunkReader(bytes.NewReader(data), robust.DecodeLimits{MaxPayloadBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = chr.ReadStream()
		if err != nil {
			break
		}
	}
	if !errors.Is(err, robust.ErrLimitExceeded) {
		t.Fatalf("cumulative payload cap: %v", err)
	}

	// Strict whole-container read honors the same cap.
	if _, _, err := ReadWithOptions(bytes.NewReader(data), Options{Limits: robust.DecodeLimits{MaxPayloadBytes: 1024}}); !errors.Is(err, robust.ErrLimitExceeded) {
		t.Fatalf("whole-read payload cap: %v", err)
	}

	// A v3 container is rejected by the chunk reader with a classified
	// error, not misparsed.
	r, err := cdc.EncodeSet(randomSet(2, 16, 0, 7))
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := WriteVersion(&v3, r, Magic); err != nil {
		t.Fatal(err)
	}
	if _, err := NewChunkReader(bytes.NewReader(v3.Bytes()), robust.DecodeLimits{}); !errors.Is(err, robust.ErrCorrupt) {
		t.Fatalf("v3 into chunk reader: %v", err)
	}
}

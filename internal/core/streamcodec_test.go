package core

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// randomSetDensity builds a random set whose X density is xPercent.
func randomSetDensity(name string, patterns, width int, xPercent float64, seed int64) *tcube.Set {
	rng := rand.New(rand.NewSource(seed))
	s := tcube.NewSet(name, width)
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

// splitSource yields a cube in fixed-size segments, exercising every
// segment-boundary path of the stream reader.
type splitSource struct {
	c    *bitvec.Cube
	off  int
	step int
}

func (s *splitSource) ReadStream() (*bitvec.Cube, error) {
	if s.off >= s.c.Len() {
		return nil, io.EOF
	}
	hi := s.off + s.step
	if hi > s.c.Len() {
		hi = s.c.Len()
	}
	seg := s.c.Slice(s.off, hi)
	s.off = hi
	return seg, nil
}

// drainDecoder reads every pattern until clean EOF.
func drainDecoder(t *testing.T, d *StreamDecoder, width int) *tcube.Set {
	t.Helper()
	out := tcube.NewSet("streamed", width)
	for {
		p, err := d.ReadPattern()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("ReadPattern %d: %v", out.Len(), err)
		}
		if err := out.Append(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamDecoderSplitsMatchDecodeSet pins the acceptance bar: for K
// in {4,8,16} and a sweep of X densities, the streaming decode of the
// EncodeSet stream, under several segment splits (including splits
// that land mid-codeword and mid-block), reproduces DecodeSet exactly.
func TestStreamDecoderSplitsMatchDecodeSet(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		for _, xp := range []float64{0, 10, 45, 75, 100} {
			cdc, err := New(k)
			if err != nil {
				t.Fatal(err)
			}
			set := randomSetDensity("s", 37, 53, xp, int64(k)*1000+int64(xp))
			want, err := cdc.EncodeSet(set)
			if err != nil {
				t.Fatal(err)
			}
			wantSet, err := cdc.DecodeSet(want.Stream, set.Width(), set.Len())
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []int{1, 7, 64, 1 << 12, want.Stream.Len() + 1} {
				dec, err := cdc.NewStreamDecoder(&splitSource{c: want.Stream, step: step}, set.Width(), robust.DecodeLimits{})
				if err != nil {
					t.Fatal(err)
				}
				gotSet := drainDecoder(t, dec, set.Width())
				if !gotSet.Equal(wantSet) {
					t.Fatalf("K=%d X=%.0f%% step=%d: streamed decode differs from DecodeSet", k, xp, step)
				}
				if dec.Patterns() != set.Len() {
					t.Fatalf("decoded %d patterns, want %d", dec.Patterns(), set.Len())
				}
			}
		}
	}
}

// TestStreamDecoderBoundedMemory pins the O(K) contract: the decoder's
// buffer high-water mark depends on the segment size and the block
// geometry, not on the pattern count — a 16x larger stream decodes in
// the same buffer.
func TestStreamDecoderBoundedMemory(t *testing.T) {
	cdc, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	const width, step = 96, 4096
	high := make(map[int]int)
	for _, patterns := range []int{64, 1024} {
		set := randomSetDensity("mem", patterns, width, 60, 99)
		r, err := cdc.EncodeSet(set)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := cdc.NewStreamDecoder(&splitSource{c: r.Stream, step: step}, width, robust.DecodeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		drainDecoder(t, dec, width)
		high[patterns] = dec.MaxBuffered()
		// The buffer never holds more than one segment plus the
		// leftover tail of the previous one.
		if dec.MaxBuffered() > 2*step {
			t.Fatalf("%d patterns: buffer high-water %d exceeds 2x segment size %d",
				patterns, dec.MaxBuffered(), 2*step)
		}
	}
	// The exact high-water shifts by a few trits with where pattern
	// boundaries land inside segments; what must not happen is growth
	// on the order of the 16x stream-size increase.
	if grow := high[1024] - high[64]; grow > step/2 {
		t.Fatalf("buffer high-water grew with pattern count: %v", high)
	}
}

// errSource returns a classified error after the first segment,
// modeling a chunk whose checksum failed mid-stream.
type errSource struct {
	first *bitvec.Cube
	err   error
	sent  bool
}

func (s *errSource) ReadStream() (*bitvec.Cube, error) {
	if !s.sent {
		s.sent = true
		return s.first, nil
	}
	return nil, s.err
}

// TestStreamDecoderPropagatesSourceError proves a source's classified
// error surfaces classified from ReadPattern (not as truncation, and
// never as a panic), and that patterns decoded before the fault are
// kept.
func TestStreamDecoderPropagatesSourceError(t *testing.T) {
	cdc, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	set := randomSetDensity("err", 10, 40, 30, 5)
	r, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	cut := r.Stream.Len() / 2
	chk := errors.New("chunk 3 CRC32C mismatch")
	wrapped := &wrappedChecksum{chk}
	dec, err := cdc.NewStreamDecoder(&errSource{first: r.Stream.Slice(0, cut), err: wrapped}, 40, robust.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := dec.ReadPattern()
		if err == nil {
			n++
			continue
		}
		if !errors.Is(err, robust.ErrChecksum) {
			t.Fatalf("after %d patterns: error %v not classified as checksum", n, err)
		}
		break
	}
	if n == 0 || n >= 10 {
		t.Fatalf("expected a partial prefix, got %d of 10 patterns", n)
	}
}

type wrappedChecksum struct{ cause error }

func (w *wrappedChecksum) Error() string { return w.cause.Error() }
func (w *wrappedChecksum) Unwrap() error { return robust.ErrChecksum }

// TestStreamDecoderLimits proves the limits are enforced incrementally:
// the width bound at construction, the pattern bound exactly at the
// pattern that would exceed it.
func TestStreamDecoderLimits(t *testing.T) {
	cdc, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cdc.NewStreamDecoder(NewCubeSource(bitvec.NewCube(0)), 100, robust.DecodeLimits{MaxWidth: 99}); !errors.Is(err, robust.ErrLimitExceeded) {
		t.Fatalf("width over limit: %v", err)
	}
	if _, err := cdc.NewStreamDecoder(NewCubeSource(bitvec.NewCube(0)), 0, robust.DecodeLimits{}); !errors.Is(err, robust.ErrCorrupt) {
		t.Fatalf("width 0: %v", err)
	}

	set := randomSetDensity("lim", 8, 24, 20, 7)
	r, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := cdc.NewStreamDecoder(NewCubeSource(r.Stream), 24, robust.DecodeLimits{MaxPatterns: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := dec.ReadPattern(); err != nil {
			t.Fatalf("pattern %d under limit: %v", i, err)
		}
	}
	if _, err := dec.ReadPattern(); !errors.Is(err, robust.ErrLimitExceeded) {
		t.Fatalf("pattern 6 over limit: %v", err)
	}
}

// TestStreamRoundTripEmptySet: an empty set encodes to an empty stream,
// which the streaming decoder ends cleanly with zero patterns.
func TestStreamRoundTripEmptySet(t *testing.T) {
	cdc, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cdc.EncodeSet(tcube.NewSet("empty", 16))
	if err != nil {
		t.Fatal(err)
	}
	if r.Patterns != 0 || r.Stream.Len() != 0 {
		t.Fatalf("empty set encoded to %d patterns, %d trits", r.Patterns, r.Stream.Len())
	}
	dec, err := cdc.NewStreamDecoder(NewCubeSource(r.Stream), 16, robust.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadPattern(); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
}

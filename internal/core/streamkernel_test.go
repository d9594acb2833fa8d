package core

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// streamOutcome is everything a StreamDecoder run emits: the patterns
// up to the first error, and that error's text ("" at a clean end).
type streamOutcome struct {
	patterns []*bitvec.Cube
	err      string
}

// runStream drains a StreamDecoder over src, recording its outcome.
func runStream(t *testing.T, c *Codec, src StreamSource, width int) streamOutcome {
	t.Helper()
	d, err := c.NewStreamDecoder(src, width, robust.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	var o streamOutcome
	for {
		p, err := d.ReadPattern()
		if err == io.EOF {
			return o
		}
		if err != nil {
			o.err = err.Error()
			return o
		}
		o.patterns = append(o.patterns, p)
	}
}

// sameOutcome fails the test unless the kernel and generic runs emitted
// the same patterns and the same error.
func sameOutcome(t *testing.T, label string, fast, ref streamOutcome) {
	t.Helper()
	if fast.err != ref.err || len(fast.patterns) != len(ref.patterns) {
		t.Fatalf("%s: kernel emitted %d patterns then %q, generic %d then %q",
			label, len(fast.patterns), fast.err, len(ref.patterns), ref.err)
	}
	for i := range fast.patterns {
		if !fast.patterns[i].Equal(ref.patterns[i]) {
			t.Fatalf("%s: pattern %d differs", label, i)
		}
	}
}

// streamMutants returns a valid stream together with hostile variants:
// truncations (mid-codeword and mid-block among them), trailing
// garbage, and random single-trit corruptions including X injection.
func streamMutants(rng *rand.Rand, stream *bitvec.Cube) []*bitvec.Cube {
	out := []*bitvec.Cube{stream}
	for _, cut := range []int{0, 1, stream.Len() / 3, stream.Len() / 2, stream.Len() - 1} {
		if cut >= 0 && cut <= stream.Len() {
			out = append(out, stream.Slice(0, cut))
		}
	}
	b := bitvec.NewCubeBuilder(stream.Len() + 5)
	b.AppendCube(stream)
	b.AppendRun(bitvec.One, 5)
	out = append(out, b.Build())
	for i := 0; i < 12 && stream.Len() > 0; i++ {
		m := stream.Clone()
		m.Set(rng.Intn(m.Len()), bitvec.Trit(rng.Intn(3)))
		out = append(out, m)
	}
	return out
}

// TestStreamDecoderKernelMatchesGeneric pins the kernel StreamDecoder
// against the generic one for every kernel K, over every segmentation
// of valid and mutilated streams: the same patterns, then the same
// error text at the same pattern.
func TestStreamDecoderKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, k := range kernelKs {
		cdc := mustCodec(t, k)
		gen := forceGeneric(cdc)
		width := 2*k + 3
		set := tcube.NewSet("strm", width)
		for i := 0; i < 6; i++ {
			set.MustAppend(diffCube(rng, width, 0.4))
		}
		enc, err := cdc.EncodeSet(set)
		if err != nil {
			t.Fatal(err)
		}
		for mi, m := range streamMutants(rng, enc.Stream) {
			for step := 1; step <= m.Len()+1; step++ {
				label := fmt.Sprintf("K=%d mutant %d step %d", k, mi, step)
				fast := runStream(t, cdc, &splitSource{c: m, step: step}, width)
				ref := runStream(t, gen, &splitSource{c: m, step: step}, width)
				sameOutcome(t, label, fast, ref)
				if mi == 0 && (ref.err != "" || len(ref.patterns) != set.Len()) {
					t.Fatalf("%s: valid stream decoded %d patterns, err %q", label, len(ref.patterns), ref.err)
				}
			}
		}
	}
}

// faultSource yields a stream in step-sized segments up to cut, then
// fails with a classified error, modeling a chunk whose checksum fails
// mid-stream.
type faultSource struct {
	splitSource
	cut int
	err error
}

func (s *faultSource) ReadStream() (*bitvec.Cube, error) {
	if s.off >= s.cut {
		return nil, s.err
	}
	seg, err := s.splitSource.ReadStream()
	if err == nil && s.off > s.cut {
		seg, s.off = seg.Slice(0, seg.Len()-(s.off-s.cut)), s.cut
	}
	return seg, err
}

// TestStreamDecoderKernelSourceFault proves the kernel's prefetch does
// not move a source error: whatever the fault position and segment
// size, the kernel and generic decoders emit the same patterns before
// the fault and report it identically.
func TestStreamDecoderKernelSourceFault(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	fault := &wrappedChecksum{fmt.Errorf("chunk CRC32C mismatch")}
	for _, k := range kernelKs {
		cdc := mustCodec(t, k)
		gen := forceGeneric(cdc)
		width := 3*k + 1
		set := tcube.NewSet("fault", width)
		for i := 0; i < 5; i++ {
			set.MustAppend(diffCube(rng, width, 0.5))
		}
		enc, err := cdc.EncodeSet(set)
		if err != nil {
			t.Fatal(err)
		}
		s := enc.Stream
		for cut := 0; cut <= s.Len(); cut++ {
			for _, step := range []int{1, 5, 64, s.Len()} {
				label := fmt.Sprintf("K=%d cut %d step %d", k, cut, step)
				fast := runStream(t, cdc, &faultSource{splitSource{c: s, step: step}, cut, fault}, width)
				ref := runStream(t, gen, &faultSource{splitSource{c: s, step: step}, cut, fault}, width)
				sameOutcome(t, label, fast, ref)
			}
		}
	}
}

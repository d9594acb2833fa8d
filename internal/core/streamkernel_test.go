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

// streamOutcome is everything a StreamDecoder run emits: the 01X rows
// up to the first error, that error's text ("" at a clean end), and
// the decoder's final Patterns and TritsConsumed.
type streamOutcome struct {
	rows     []string
	err      string
	patterns int
	consumed int
}

// runStream drains a StreamDecoder over src, recording its outcome.
// text reads through AppendText into one reused buffer, as /decode
// does; otherwise through ReadPattern.
func runStream(t *testing.T, c *Codec, src StreamSource, width int, text bool) streamOutcome {
	t.Helper()
	d, err := c.NewStreamDecoder(src, width, robust.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	var o streamOutcome
	var buf []byte
	for {
		var row string
		if text {
			buf, err = d.AppendText(buf[:0])
			row = string(buf)
		} else {
			var p *bitvec.Cube
			if p, err = d.ReadPattern(); p != nil {
				row = p.String()
			}
		}
		if err != nil {
			if err != io.EOF {
				o.err = err.Error()
			}
			o.patterns, o.consumed = d.Patterns(), d.TritsConsumed()
			return o
		}
		if len(row) != width {
			t.Fatalf("row of %d trits, want %d", len(row), width)
		}
		o.rows = append(o.rows, row)
	}
}

// runStream3 runs the three decode paths over sources from mk and
// fails unless they agree: the text kernel (AppendText), the plane
// kernel (ReadPattern) and the generic decoder.
func runStream3(t *testing.T, label string, c *Codec, mk func() StreamSource, width int) streamOutcome {
	t.Helper()
	ref := runStream(t, forceGeneric(c), mk(), width, false)
	sameOutcome(t, label+" text", runStream(t, c, mk(), width, true), ref)
	sameOutcome(t, label+" planes", runStream(t, c, mk(), width, false), ref)
	return ref
}

// sameOutcome fails the test unless a kernel run and the generic run
// emitted the same rows, the same error and the same accounting.
func sameOutcome(t *testing.T, label string, fast, ref streamOutcome) {
	t.Helper()
	if fast.err != ref.err || len(fast.rows) != len(ref.rows) {
		t.Fatalf("%s: kernel emitted %d patterns then %q, generic %d then %q",
			label, len(fast.rows), fast.err, len(ref.rows), ref.err)
	}
	for i := range fast.rows {
		if fast.rows[i] != ref.rows[i] {
			t.Fatalf("%s: pattern %d differs:\n kernel  %s\n generic %s", label, i, fast.rows[i], ref.rows[i])
		}
	}
	if fast.patterns != ref.patterns || fast.consumed != ref.consumed {
		t.Fatalf("%s: kernel ended at %d patterns / %d trits, generic %d / %d",
			label, fast.patterns, fast.consumed, ref.patterns, ref.consumed)
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

// TestStreamDecoderKernelMatchesGeneric pins the text and plane kernel
// StreamDecoders against the generic one for every kernel K, over every
// segmentation of valid and mutilated streams: the same patterns, then
// the same error text at the same pattern.
func TestStreamDecoderKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, k := range kernelKs {
		cdc := mustCodec(t, k)
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
				ref := runStream3(t, label, cdc, func() StreamSource { return &splitSource{c: m, step: step} }, width)
				if mi == 0 && (ref.err != "" || len(ref.rows) != set.Len()) {
					t.Fatalf("%s: valid stream decoded %d patterns, err %q", label, len(ref.rows), ref.err)
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
// size, the text kernel, plane kernel and generic decoders emit the
// same patterns before the fault and report it identically.
func TestStreamDecoderKernelSourceFault(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	fault := &wrappedChecksum{fmt.Errorf("chunk CRC32C mismatch")}
	for _, k := range kernelKs {
		cdc := mustCodec(t, k)
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
				runStream3(t, label, cdc, func() StreamSource {
					return &faultSource{splitSource{c: s, step: step}, cut, fault}
				}, width)
			}
		}
	}
}

// TestAppendTextTable runs the three decode paths over valid and
// mutated streams for kernel and generic block sizes alike, at widths
// below K, not a multiple of K, and spanning words, under assignments
// whose C1 codeword is "0", "1" and two bits long (the kernels' C1
// runs): AppendText must emit ReadPattern's rows and errors whether or
// not a kernel runs.
func TestAppendTextTable(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	assigns := [][]string{
		nil, // the default: C1 = "0"
		{"1", "01", "00101", "00100", "00011", "00010", "00001", "00000", "0011"},
		{"10", "0", "11010", "11011", "11100", "11101", "11110", "11111", "1100"},
	}
	for _, k := range []int{2, 4, 6, 8, 16, 32, 130} {
		for ai, codes := range assigns {
			cdc := mustCodec(t, k)
			if codes != nil {
				a, err := AssignmentFromCodes(codes)
				if err != nil {
					t.Fatal(err)
				}
				if cdc, err = NewWithAssignment(k, a); err != nil {
					t.Fatal(err)
				}
			}
			for _, width := range []int{1, k - 1, k + 1, 2*k + 3, 67, 200} {
				if width < 1 {
					continue
				}
				set := tcube.NewSet("text", width)
				for i := 0; i < 5; i++ {
					set.MustAppend(diffCube(rng, width, []float64{0, 0.5, 0.95}[i%3]))
				}
				enc, err := cdc.EncodeSet(set)
				if err != nil {
					t.Fatal(err)
				}
				for mi, m := range streamMutants(rng, enc.Stream) {
					for _, step := range []int{7, m.Len() + 1} {
						label := fmt.Sprintf("K=%d assign %d w=%d mutant %d step %d", k, ai, width, mi, step)
						ref := runStream3(t, label, cdc, func() StreamSource { return &splitSource{c: m, step: step} }, width)
						if mi == 0 && (ref.err != "" || len(ref.rows) != set.Len()) {
							t.Fatalf("%s: valid stream decoded %d patterns, err %q", label, len(ref.rows), ref.err)
						}
					}
				}
			}
		}
	}
}

// TestAppendTextZeroAlloc pins the /decode steady state: on the kernel
// path, AppendText into a reused buffer allocates nothing per pattern.
func TestAppendTextZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, k := range kernelKs {
		const width = 300
		set := tcube.NewSet("allocs", width)
		for i := 0; i < 150; i++ {
			set.MustAppend(diffCube(rng, width, 0.6))
		}
		enc, err := mustCodec(t, k).EncodeSet(set)
		if err != nil {
			t.Fatal(err)
		}
		d, err := mustCodec(t, k).NewStreamDecoder(NewCubeSource(enc.Stream), width, robust.DecodeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := d.AppendText(nil)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if buf, err = d.AppendText(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("K=%d: AppendText allocated %v per pattern", k, allocs)
		}
	}
}

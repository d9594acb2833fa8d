package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// Counts records the occurrence frequency N_i of each codeword, indexed
// by case-1 (Counts[0] == N1), the statistic behind Tables VI and VII.
type Counts [NumCases]int

// Add increments the count for case c.
func (n *Counts) Add(c Case) { n[c-1]++ }

// N returns N_c.
func (n Counts) N(c Case) int { return n[c-1] }

// Total returns the number of encoded blocks.
func (n Counts) Total() int {
	t := 0
	for _, v := range n {
		t += v
	}
	return t
}

// Codec is a 9C encoder/decoder for a fixed block size K and codeword
// assignment. The decoder hardware the codec models is independent of
// both the circuit under test and the precomputed test set; only K is a
// design-time parameter.
type Codec struct {
	k      int
	assign Assignment
	packed [NumCases]packedCode // codewords packed for word appending
	table  *decodeTable         // codeword trie, immutable after construction

	// Kernel state (see kernel.go, textkernel.go); klut and ktext stay
	// nil for block sizes without a kernel and the generic decoder runs.
	kcodes   [NumCases]kernelCode
	kenc     kernelEncode
	ktext    kernelText
	kc1      kernelCode // 64/K C1 codewords packed as one append
	kc1ok    bool
	maxCode  int      // longest codeword length
	klut     []uint16 // flat codeword LUT, nil when maxCode > maxLUTBits
	klutMask uint64
}

// MaxK is the largest block size a codec accepts, and the largest a
// container reader admits: a stream's worst case grows linearly in K.
const MaxK = 1 << 20

// New returns a Codec for block size k with the default codeword
// assignment. k must be an even integer in [2, MaxK] so the block
// splits into two equal halves.
func New(k int) (*Codec, error) {
	return NewWithAssignment(k, DefaultAssignment())
}

// NewWithAssignment returns a Codec using a caller-supplied codeword
// assignment (e.g. a frequency-directed one).
func NewWithAssignment(k int, a Assignment) (*Codec, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("core: block size K=%d must be an even integer >= 2", k)
	}
	if k > MaxK {
		return nil, fmt.Errorf("core: block size K=%d exceeds %d", k, MaxK)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	c := &Codec{k: k, assign: a, packed: packAssignment(a), table: newDecodeTable(a)}
	c.initKernel()
	return c, nil
}

// K returns the block size.
func (c *Codec) K() int { return c.k }

// Assignment returns the codeword assignment in use.
func (c *Codec) Assignment() Assignment { return c.assign }

// Result is the outcome of a 9C encoding: the compressed stream T_E
// (ternary — leftover don't-cares survive inside shipped mismatch
// halves), codeword statistics, and enough geometry to decode.
type Result struct {
	K         int
	Name      string // source set name ("" for bare cubes and v1 containers)
	Assign    Assignment
	Stream    *bitvec.Cube // T_E in ATE shipping order
	Counts    Counts
	OrigBits  int // |T_D| before padding
	Blocks    int
	LeftoverX int // X bits surviving in Stream
	Patterns  int // number of test patterns (0 when a bare cube was encoded)
	Width     int // per-pattern scan width  (0 when a bare cube was encoded)
}

// CompressedBits returns |T_E|.
func (r *Result) CompressedBits() int { return r.Stream.Len() }

// CR returns the compression ratio in percent:
// 100·(|T_D|−|T_E|)/|T_D|. Negative values mean expansion.
func (r *Result) CR() float64 {
	if r.OrigBits == 0 {
		return 0
	}
	return 100 * float64(r.OrigBits-r.CompressedBits()) / float64(r.OrigBits)
}

// LXPercent returns leftover don't-cares as a percentage of |T_D|, the
// paper's Table III metric.
func (r *Result) LXPercent() float64 {
	if r.OrigBits == 0 {
		return 0
	}
	return 100 * float64(r.LeftoverX) / float64(r.OrigBits)
}

// EncodeCube compresses a bare cube (e.g. one already-flattened scan
// stream). The cube is padded with X to a multiple of K.
func (c *Codec) EncodeCube(flat *bitvec.Cube) (*Result, error) {
	sp := obs.Active().Span("core.encode_cube")
	blocks := (flat.Len() + c.k - 1) / c.k
	var counts Counts
	var w kernelWriter
	w.reset(c.worstBits(blocks))
	care, val := flat.RawWords()
	c.kenc(c, care, val, blocks, &w, &counts)
	stream := w.take()
	r := &Result{
		K: c.k, Assign: c.assign, Stream: stream, Counts: counts,
		OrigBits: flat.Len(), Blocks: blocks, LeftoverX: stream.XCount(),
	}
	observeEncode(sp, r, "cube")
	return r, nil
}

// EncodeOptions selects where Encode writes its stream and how many
// goroutines share the work. The zero value is a serial encode into a
// freshly allocated stream.
type EncodeOptions struct {
	// WS, when non-nil, holds the stream and the Result: both alias
	// the workspace and stay valid only until its next use or Release.
	// A serial encode into a warm workspace allocates nothing.
	WS *Workspace
	// Workers > 1 splits the patterns into that many contiguous chunks
	// (at most one per pattern), each encoded by its own goroutine.
	// The stream is bit-identical whatever the count.
	Workers int
}

// Encode compresses a test set pattern by pattern: each scan load is
// padded independently to a multiple of K, preserving per-pattern
// synchronization between the ATE and the decoder. ctx is checked
// between patterns (a non-cancellable ctx costs nothing); on
// cancellation, or if a worker panics, Encode returns the error and no
// partial result.
func (c *Codec) Encode(ctx context.Context, s *tcube.Set, opt EncodeOptions) (*Result, error) {
	var res *Result
	var w *kernelWriter
	if opt.WS != nil {
		res, w = &opt.WS.res, &opt.WS.enc
	} else {
		res, w = new(Result), new(kernelWriter)
	}
	blocksPer := (s.Width() + c.k - 1) / c.k
	// Counts accumulate directly in res so the pointer handed to the
	// kernel never forces a heap escape of a workspace encode.
	*res = Result{
		K: c.k, Name: s.Name, Assign: c.assign,
		OrigBits: s.Bits(), Blocks: blocksPer * s.Len(),
		Patterns: s.Len(), Width: s.Width(),
	}
	var sp *obs.Span
	var err error
	mode := "serial"
	if workers := min(opt.Workers, s.Len()); workers > 1 {
		sp = obs.SpanCtx(ctx, "core.encode_set_parallel").Set("workers", workers)
		mode = "parallel"
		err = c.encodeParallel(ctx, sp, s, workers, w, &res.Counts)
	} else {
		sp = obs.SpanCtx(ctx, "core.encode_set")
		w.reset(c.worstBits(res.Blocks))
		err = c.encodeRange(ctx, s, 0, s.Len(), w, &res.Counts)
	}
	if err != nil {
		sp.Set("error", err.Error()).End()
		return nil, err
	}
	if opt.WS != nil {
		res.Stream = opt.WS.takeStream()
	} else {
		res.Stream = w.take()
	}
	res.LeftoverX = res.Stream.XCount()
	observeEncode(sp, res, mode)
	return res, nil
}

// encodeRange appends the encodings of patterns [lo,hi) of s to w and
// adds their codeword counts to counts, checking ctx between patterns
// when it is cancellable. It is the one inner loop of every set encode.
func (c *Codec) encodeRange(ctx context.Context, s *tcube.Set, lo, hi int, w *kernelWriter, counts *Counts) error {
	blocksPer := (s.Width() + c.k - 1) / c.k
	cancellable := ctx.Done() != nil
	for i := lo; i < hi; i++ {
		if cancellable {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		care, val := s.Cube(i).RawWords()
		c.kenc(c, care, val, blocksPer, w, counts)
	}
	return nil
}

// EncodeSet is Encode with the zero options: serial, into a fresh
// stream, under no context.
func (c *Codec) EncodeSet(s *tcube.Set) (*Result, error) {
	return c.Encode(context.Background(), s, EncodeOptions{})
}

// decodeBlocksPartial is the generic decoder: it reads up to blocks
// block encodings from r, stopping at the first malformed or truncated
// block. It returns the blocks*K output cube, or the error that stopped
// decoding.
func decodeBlocksPartial(c *Codec, r *streamReader, blocks int) (*bitvec.Cube, error) {
	k := c.k
	h := k / 2
	out := bitvec.NewCube(blocks * k)
	for b := 0; b < blocks; b++ {
		cs, err := nextCase(c.table, r)
		if err != nil {
			return nil, fmt.Errorf("core: block %d: %w", b, err)
		}
		base := b * k
		if v, ok := cs.matchedLeft(); ok {
			out.SetRun(base, base+h, v)
		} else {
			if err := r.readRaw(out, base, base+h); err != nil {
				return nil, fmt.Errorf("core: block %d left data: %w", b, err)
			}
		}
		if v, ok := cs.matchedRight(); ok {
			out.SetRun(base+h, base+k, v)
		} else {
			if err := r.readRaw(out, base+h, base+k); err != nil {
				return nil, fmt.Errorf("core: block %d right data: %w", b, err)
			}
		}
	}
	return out, nil
}

// DecodeCube decompresses a stream produced by EncodeCube back into a
// cube of origBits trits: one StreamDecoder pattern of width origBits.
// Matched halves regenerate as constant runs; mismatch halves keep
// their shipped trits (including leftover X). It is an error for the
// stream to be truncated, malformed, or to carry trailing bits beyond
// the last block.
func (c *Codec) DecodeCube(stream *bitvec.Cube, origBits int) (cube *bitvec.Cube, err error) {
	sp := obs.Active().Span("core.decode_cube")
	defer func() { observeDecode(sp, origBits, err) }()
	if origBits < 0 {
		return nil, fmt.Errorf("core: negative output size %d: %w", origBits, robust.ErrCorrupt)
	}
	set, err := c.decodeSet(stream, origBits, 1)
	if err != nil {
		return nil, err
	}
	return set.Cube(0), nil
}

// DecodeCubePartial is the lenient counterpart of DecodeCube: it
// decodes whole blocks until the first fault and returns what it
// recovered (clipped to origBits) together with the error that stopped
// it, or nil when the whole stream decoded cleanly. Trailing bits
// beyond the final block are reported as the fault but do not discard
// the recovered prefix. A bare-cube stream is the set stream of its
// blocks as width-K patterns, so this is DecodeSetPartial flattened.
func (c *Codec) DecodeCubePartial(stream *bitvec.Cube, origBits int) (*bitvec.Cube, error) {
	if origBits < 0 {
		return nil, fmt.Errorf("core: negative output size %d: %w", origBits, robust.ErrCorrupt)
	}
	set, err := c.decodeSet(stream, c.k, (origBits+c.k-1)/c.k)
	flat := set.Flatten()
	return flat.Slice(0, min(flat.Len(), origBits)), err
}

// DecodeSet decompresses a stream produced by EncodeSet back into a
// test set of the given geometry; on error the partial set is dropped.
func (c *Codec) DecodeSet(stream *bitvec.Cube, width, patterns int) (set *tcube.Set, err error) {
	sp := obs.Active().Span("core.decode_set")
	defer func() { observeDecode(sp, width*patterns, err) }()
	if set, err = c.DecodeSetPartial(stream, width, patterns); err != nil {
		return nil, err
	}
	return set, nil
}

// DecodeSetPartial is the lenient counterpart of DecodeSet: it decodes
// pattern after pattern until the first fault and returns the patterns
// recovered before it, together with the error that stopped decoding
// (nil when the whole stream decoded cleanly). A pattern interrupted
// mid-block is discarded; trailing bits after the final pattern are
// reported as the fault but keep every recovered pattern. This is the
// -strict=false path of cmd/ninec: a service can salvage the prefix of
// a container whose tail was corrupted in transit.
func (c *Codec) DecodeSetPartial(stream *bitvec.Cube, width, patterns int) (*tcube.Set, error) {
	if width < 0 || patterns < 0 {
		return nil, fmt.Errorf("core: invalid geometry %dx%d: %w", patterns, width, robust.ErrCorrupt)
	}
	return c.decodeSet(stream, width, patterns)
}

// decodeSet is the one in-memory decode loop: exactly patterns reads
// of a StreamDecoder over the whole stream, under limits that admit
// exactly that geometry, then a check that nothing trails. Width-0
// patterns occupy no trits, so they skip the decoder (which refuses
// width 0).
func (c *Codec) decodeSet(stream *bitvec.Cube, width, patterns int) (*tcube.Set, error) {
	out := tcube.NewSet("decoded", width)
	used := 0
	if width == 0 {
		for i := 0; i < patterns; i++ {
			out.MustAppend(bitvec.NewCube(0))
		}
	} else if patterns > 0 {
		d, err := c.NewStreamDecoder(NewCubeSource(stream), width, robust.DecodeLimits{MaxWidth: width, MaxPatterns: patterns})
		if err != nil {
			return out, err
		}
		for i := 0; i < patterns; i++ {
			p, err := d.ReadPattern()
			if err == io.EOF {
				err = fmt.Errorf("core: pattern %d: %w", i, ErrTruncated)
			}
			if err != nil {
				return out, err
			}
			out.MustAppend(p)
		}
		used = d.TritsConsumed()
	}
	if n := stream.Len() - used; n != 0 {
		return out, fmt.Errorf("core: %d trailing bits after final pattern: %w", n, robust.ErrCorrupt)
	}
	return out, nil
}

// Decode reconstructs the test set or cube geometry recorded in r.
// For set-encoded results it returns the decoded set and a nil cube;
// for bare-cube results it returns a nil set and the decoded cube.
func (c *Codec) Decode(r *Result) (*tcube.Set, *bitvec.Cube, error) {
	if r.K != c.k {
		return nil, nil, fmt.Errorf("core: result K=%d, codec K=%d", r.K, c.k)
	}
	if r.Patterns > 0 || r.Width > 0 {
		s, err := c.DecodeSet(r.Stream, r.Width, r.Patterns)
		return s, nil, err
	}
	cu, err := c.DecodeCube(r.Stream, r.OrigBits)
	return nil, cu, err
}

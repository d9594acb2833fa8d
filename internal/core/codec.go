package core

import (
	"context"
	"fmt"

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

	// Per-K kernel state (see kernel.go); kenc/kdec stay nil for block
	// sizes without a specialized kernel and the generic path runs.
	kcodes   [NumCases]kernelCode
	kenc     kernelEncode
	kdec     kernelDecode
	kc1      kernelCode // 64/K C1 codewords packed as one append
	kc1ok    bool
	maxCode  int      // longest codeword length
	klut     []uint16 // flat codeword LUT, nil when maxCode > maxLUTBits
	klutMask uint64
}

// New returns a Codec for block size k with the default codeword
// assignment. k must be an even integer ≥ 2 so the block splits into
// two equal halves.
func New(k int) (*Codec, error) {
	return NewWithAssignment(k, DefaultAssignment())
}

// NewWithAssignment returns a Codec using a caller-supplied codeword
// assignment (e.g. a frequency-directed one).
func NewWithAssignment(k int, a Assignment) (*Codec, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("core: block size K=%d must be an even integer >= 2", k)
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

// encodeBlock appends the encoding of one block to w and returns its case.
func (c *Codec) encodeBlock(flat *bitvec.Cube, off int, w *cubeWriter) Case {
	k := c.k
	cs := Classify(flat, off, k)
	w.writeCode(c.packed[cs-1])
	h := k / 2
	if cs.LeftMismatch() {
		w.writeRaw(flat, off, off+h)
	}
	if cs.RightMismatch() {
		w.writeRaw(flat, off+h, off+k)
	}
	return cs
}

// EncodeCube compresses a bare cube (e.g. one already-flattened scan
// stream). The cube is padded with X to a multiple of K.
func (c *Codec) EncodeCube(flat *bitvec.Cube) (*Result, error) {
	sp := obs.Active().Span("core.encode_cube")
	blocks := (flat.Len() + c.k - 1) / c.k
	var counts Counts
	var stream *bitvec.Cube
	if c.hasKernel() {
		var w kernelWriter
		w.reset(c.worstBits(blocks))
		care, val := flat.RawWords()
		c.kenc(c, care, val, blocks, &w, &counts)
		stream = w.take()
	} else {
		w := newCubeWriter(flat.Len() + blocks*2)
		for b := 0; b < blocks; b++ {
			counts.Add(c.encodeBlock(flat, b*c.k, w))
		}
		stream = w.cube()
	}
	r := &Result{
		K: c.k, Assign: c.assign, Stream: stream, Counts: counts,
		OrigBits: flat.Len(), Blocks: blocks, LeftoverX: stream.XCount(),
	}
	observeEncode(sp, r, "cube")
	return r, nil
}

// encodePatterns appends the encodings of patterns [lo,hi) of s to w
// and accumulates their codeword counts. It is the shared inner loop of
// EncodeSet and the per-worker slices of EncodeSetParallel.
func (c *Codec) encodePatterns(s *tcube.Set, lo, hi int, w *cubeWriter) Counts {
	var counts Counts
	blocksPer := (s.Width() + c.k - 1) / c.k
	for i := lo; i < hi; i++ {
		p := s.Cube(i)
		for b := 0; b < blocksPer; b++ {
			counts.Add(c.encodeBlock(p, b*c.k, w))
		}
	}
	return counts
}

// encodeChunk encodes patterns [lo,hi) of s into a fresh stream cube,
// through the per-K kernel when one is installed. It is the shared
// inner engine of EncodeSet, the ctx-checked serial encode, and the
// EncodeSetParallel workers; a non-cancellable ctx (Done() == nil)
// costs nothing extra.
func (c *Codec) encodeChunk(ctx context.Context, s *tcube.Set, lo, hi int) (*bitvec.Cube, Counts, error) {
	blocksPer := (s.Width() + c.k - 1) / c.k
	var counts Counts
	if c.hasKernel() {
		var w kernelWriter
		w.reset(c.worstBits(blocksPer * (hi - lo)))
		cancellable := ctx.Done() != nil
		for i := lo; i < hi; i++ {
			if cancellable {
				if err := ctx.Err(); err != nil {
					return nil, counts, err
				}
			}
			care, val := s.Cube(i).RawWords()
			c.kenc(c, care, val, blocksPer, &w, &counts)
		}
		return w.take(), counts, nil
	}
	w := newCubeWriter((hi-lo)*s.Width() + (hi-lo)*blocksPer*2)
	counts, err := c.encodePatternsCtx(ctx, s, lo, hi, w)
	if err != nil {
		return nil, counts, err
	}
	return w.cube(), counts, nil
}

// EncodeSet compresses a test set pattern by pattern: each scan load is
// padded independently to a multiple of K, preserving per-pattern
// synchronization between the ATE and the decoder.
func (c *Codec) EncodeSet(s *tcube.Set) (*Result, error) {
	sp := obs.Active().Span("core.encode_set")
	blocksPer := (s.Width() + c.k - 1) / c.k
	stream, counts, _ := c.encodeChunk(context.Background(), s, 0, s.Len())
	r := &Result{
		K: c.k, Name: s.Name, Assign: c.assign, Stream: stream, Counts: counts,
		OrigBits: s.Bits(), Blocks: blocksPer * s.Len(),
		LeftoverX: stream.XCount(), Patterns: s.Len(), Width: s.Width(),
	}
	observeEncode(sp, r, "serial")
	return r, nil
}

// decodeBlocks reads exactly blocks block encodings from r and emits
// their K-bit expansions into out starting at position 0.
func decodeBlocks[R blockSource](c *Codec, r R, blocks int) (*bitvec.Cube, error) {
	out, _, err := decodeBlocksPartial(c, r, blocks)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// decodeBlocksPartial reads up to blocks block encodings from r,
// stopping at the first malformed or truncated block. It returns the
// output cube, the number of blocks decoded cleanly, and the error
// that stopped decoding (nil when all blocks decoded). The output is
// always blocks*K long; only the first good*K positions are meaningful.
// Generic over the stream source so the in-memory and streaming
// decoders monomorphize to the same loop.
func decodeBlocksPartial[R blockSource](c *Codec, r R, blocks int) (*bitvec.Cube, int, error) {
	k := c.k
	h := k / 2
	out := bitvec.NewCube(blocks * k)
	for b := 0; b < blocks; b++ {
		cs, err := nextCase(c.table, r)
		if err != nil {
			return out, b, fmt.Errorf("core: block %d: %w", b, err)
		}
		base := b * k
		if v, ok := cs.matchedLeft(); ok {
			out.SetRun(base, base+h, v)
		} else {
			if err := r.readRaw(out, base, base+h); err != nil {
				return out, b, fmt.Errorf("core: block %d left data: %w", b, err)
			}
		}
		if v, ok := cs.matchedRight(); ok {
			out.SetRun(base+h, base+k, v)
		} else {
			if err := r.readRaw(out, base+h, base+k); err != nil {
				return out, b, fmt.Errorf("core: block %d right data: %w", b, err)
			}
		}
	}
	return out, blocks, nil
}

// DecodeCube decompresses a stream produced by EncodeCube back into a
// cube of origBits trits. Matched halves regenerate as constant runs;
// mismatch halves keep their shipped trits (including leftover X). It
// is an error for the stream to be truncated, malformed, or to carry
// trailing bits beyond the last block.
func (c *Codec) DecodeCube(stream *bitvec.Cube, origBits int) (cube *bitvec.Cube, err error) {
	sp := obs.Active().Span("core.decode_cube")
	defer func() { observeDecode(sp, origBits, err) }()
	if origBits < 0 {
		return nil, fmt.Errorf("core: negative output size %d: %w", origBits, robust.ErrCorrupt)
	}
	if out, ok := c.decodeCubeFast(stream, origBits); ok {
		return out, nil
	}
	r := &cubeReader{src: stream}
	blocks := (origBits + c.k - 1) / c.k
	out, err := decodeBlocks(c, r, blocks)
	if err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("core: %d trailing bits after final block: %w", r.remaining(), robust.ErrCorrupt)
	}
	return out.Slice(0, origBits), nil
}

// decodeCubeFast is the kernel decode of a bare-cube stream. ok=false
// (unsupported K, exotic assignment, or anything suspicious in the
// stream) means the caller must run the generic path; the fast path
// never reports errors itself so the classified error and its position
// come from exactly the same code as before the kernels existed.
func (c *Codec) decodeCubeFast(stream *bitvec.Cube, origBits int) (*bitvec.Cube, bool) {
	if !c.hasDecodeKernel() {
		return nil, false
	}
	scare, sval := stream.RawWords()
	blocks := (origBits + c.k - 1) / c.k
	var w kernelWriter
	w.reset(blocks * c.k)
	pos, ok := c.kdec(c, scare, sval, stream.Len(), 0, blocks, &w)
	if !ok || pos != stream.Len() {
		return nil, false
	}
	return bitvec.NewCubeCopyWords(origBits, w.care, w.val), true
}

// DecodeCubePartial is the lenient counterpart of DecodeCube: it
// decodes whole blocks until the first fault and returns what it
// recovered (clipped to origBits) together with the error that stopped
// it, or nil when the whole stream decoded cleanly. Trailing bits
// beyond the final block are reported as the fault but do not discard
// the recovered prefix.
func (c *Codec) DecodeCubePartial(stream *bitvec.Cube, origBits int) (*bitvec.Cube, error) {
	if origBits < 0 {
		return nil, fmt.Errorf("core: negative output size %d: %w", origBits, robust.ErrCorrupt)
	}
	r := &cubeReader{src: stream}
	blocks := (origBits + c.k - 1) / c.k
	out, good, err := decodeBlocksPartial(c, r, blocks)
	n := good * c.k
	if n > origBits {
		n = origBits
	}
	if err == nil && r.remaining() != 0 {
		err = fmt.Errorf("core: %d trailing bits after final block: %w", r.remaining(), robust.ErrCorrupt)
	}
	return out.Slice(0, n), err
}

// DecodeSet decompresses a stream produced by EncodeSet back into a
// test set of the given geometry. Streams the kernel declines go
// through DecodeSetPartial, whose partial set is dropped on error.
func (c *Codec) DecodeSet(stream *bitvec.Cube, width, patterns int) (set *tcube.Set, err error) {
	sp := obs.Active().Span("core.decode_set")
	defer func() { observeDecode(sp, width*patterns, err) }()
	if width < 0 || patterns < 0 {
		return nil, fmt.Errorf("core: invalid geometry %dx%d: %w", patterns, width, robust.ErrCorrupt)
	}
	if out, ok := c.decodeSetFast(stream, width, patterns); ok {
		return out, nil
	}
	out, err := c.DecodeSetPartial(stream, width, patterns)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// decodeSetFast is the kernel decode of a set stream: one reusable
// scratch writer across patterns, each decoded pattern copied out as an
// independently-owned cube. ok=false falls back to DecodeSetPartial
// (see decodeCubeFast).
func (c *Codec) decodeSetFast(stream *bitvec.Cube, width, patterns int) (*tcube.Set, bool) {
	if !c.hasDecodeKernel() {
		return nil, false
	}
	scare, sval := stream.RawWords()
	slen := stream.Len()
	blocksPer := (width + c.k - 1) / c.k
	out := tcube.NewSet("decoded", width)
	var w kernelWriter
	pos := 0
	for i := 0; i < patterns; i++ {
		w.reset(blocksPer * c.k)
		var ok bool
		pos, ok = c.kdec(c, scare, sval, slen, pos, blocksPer, &w)
		if !ok {
			return nil, false
		}
		if out.Append(bitvec.NewCubeCopyWords(width, w.care, w.val)) != nil {
			return nil, false
		}
	}
	if pos != slen {
		return nil, false
	}
	return out, true
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
	r := &cubeReader{src: stream}
	blocksPer := (width + c.k - 1) / c.k
	out := tcube.NewSet("decoded", width)
	for i := 0; i < patterns; i++ {
		p, err := decodeBlocks(c, r, blocksPer)
		if err != nil {
			return out, fmt.Errorf("core: pattern %d: %w", i, err)
		}
		if err := out.Append(p.Slice(0, width)); err != nil {
			return out, err
		}
	}
	if r.remaining() != 0 {
		return out, fmt.Errorf("core: %d trailing bits after final pattern: %w", r.remaining(), robust.ErrCorrupt)
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

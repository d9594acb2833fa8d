package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/bitvec"
	"repro/internal/robust"
)

// This file is the constant-memory streaming decoder of the 9C codec.
// Encoding is an offline step over the whole T_D (EncodeSet and its
// workspace variants); decoding is what the paper streams, as the ATE
// ships T_E into an on-chip decoder. The streaming decoder processes
// one pattern (and inside it, one block) at a time with working state
// proportional to the scan width plus whatever segment the transport
// hands over — never to the pattern count. Its output is bit-identical
// to the in-memory DecodeSet, pinned by differential tests.

// StreamSource yields successive segments of a compressed 9C stream.
// It returns io.EOF after the final segment. Segment boundaries carry
// no meaning; only the concatenated trit sequence does. Sources that
// verify integrity incrementally (container.ChunkReader) return their
// classified error in place of the segment that failed verification.
type StreamSource interface {
	ReadStream() (*bitvec.Cube, error)
}

// streamReader adapts a StreamSource into a blockSource: it keeps the
// unconsumed tail plus the segments fetched to extend it, so the decode
// buffer is bounded by the largest segment the source yields plus one
// pattern of lookahead — never by the stream length.
//
// buf is either a source segment adopted without copying (when nothing
// was left unread) or a view of spliced, which appends segments at its
// tail and drops its consumed head only once that head outweighs the
// unread tail. Each trit is therefore copied O(1) times however small
// the segments are, even while prefetching a whole pattern.
type streamReader struct {
	src      StreamSource
	buf      *bitvec.Cube
	spliced  bitvec.CubeBuilder
	own      bool // buf is a view of spliced
	pos      int
	consumed int // total trits consumed, for error positions
	srcDone  bool
	// srcErr latches the first source error. The kernel path prefetches
	// ahead of what decoding strictly needs, so the error may be met
	// early; it is re-delivered only once a read actually needs trits
	// behind it, exactly where the generic path would have met it.
	srcErr error
	maxBuf int // high-water mark of buf.Len(), pinned by memory tests
}

func (r *streamReader) unread() int {
	if r.buf == nil {
		return 0
	}
	return r.buf.Len() - r.pos
}

func (r *streamReader) bitPos() int { return r.consumed }

// fetch pulls the next segment and splices it after the unconsumed
// tail. It returns io.EOF (and latches srcDone) at stream end, and
// latches any other source error in srcErr.
func (r *streamReader) fetch() error {
	if r.srcErr != nil {
		return r.srcErr
	}
	seg, err := r.src.ReadStream()
	if err != nil {
		if err == io.EOF {
			r.srcDone = true
		} else {
			r.srcErr = err
		}
		return err
	}
	if seg == nil || seg.Len() == 0 {
		return nil
	}
	switch {
	case r.unread() == 0:
		r.buf, r.pos, r.own = seg, 0, false
	case !r.own:
		r.spliced.Discard(r.spliced.Len())
		r.spliced.AppendCubeRange(r.buf, r.pos, r.buf.Len())
		r.pos, r.own = 0, true
	case r.pos >= r.unread():
		r.spliced.Discard(r.pos)
		r.pos = 0
	}
	if r.own {
		r.spliced.AppendCube(seg)
		r.buf = r.spliced.View()
	}
	if r.buf.Len() > r.maxBuf {
		r.maxBuf = r.buf.Len()
	}
	return nil
}

// ensure makes at least n unread trits available, fetching segments as
// needed. A stream that ends first reports ErrTruncated; a source
// error (e.g. a chunk checksum failure) propagates as-is.
func (r *streamReader) ensure(n int) error {
	for r.unread() < n {
		if r.srcDone {
			return ErrTruncated
		}
		if err := r.fetch(); err != nil && err != io.EOF {
			return err
		}
	}
	return nil
}

// prefetch buffers until at least n unread trits are available, the
// source is drained, or it has failed. It never reports the failure:
// that stays latched for ensure to deliver on demand.
func (r *streamReader) prefetch(n int) {
	for r.unread() < n && !r.srcDone && r.srcErr == nil {
		_ = r.fetch() // latched in srcDone / srcErr
	}
}

// readBit reads one codeword bit; X is rejected (codewords are always
// fully specified), matching cubeReader.readBit.
func (r *streamReader) readBit() (bool, error) {
	if err := r.ensure(1); err != nil {
		return false, err
	}
	t := r.buf.Get(r.pos)
	r.pos++
	r.consumed++
	switch t {
	case bitvec.Zero:
		return false, nil
	case bitvec.One:
		return true, nil
	default:
		return false, fmt.Errorf("%w: X at codeword position %d", ErrBadCodeword, r.consumed-1)
	}
}

// readRaw copies the next hi-lo trits into out[lo:hi], word at a time.
func (r *streamReader) readRaw(out *bitvec.Cube, lo, hi int) error {
	if err := r.ensure(hi - lo); err != nil {
		return err
	}
	for i := lo; i < hi; {
		n := hi - i
		if n > 64 {
			n = 64
		}
		care, val := r.buf.ReadWord(r.pos)
		out.WriteWord(i, care, val, n)
		r.pos += n
		r.consumed += n
		i += n
	}
	return nil
}

// StreamDecoder decodes a compressed stream one pattern at a time,
// pulling segments from the source on demand. Its buffer holds at most
// the source's largest segment plus the tail of the previous one;
// robust.DecodeLimits are enforced incrementally — the width bound at
// construction, the pattern bound as patterns are emitted — so a
// hostile stream can never force an allocation proportional to a
// forged length field. The decoded patterns are bit-identical to what
// DecodeSet would produce from the concatenated stream.
//
// Codecs with a decode kernel run it over the buffered planes: each
// pattern first prefetches one worst-case pattern of trits (or up to
// the end of the source), then decodes in one kernel call. Anything the
// kernel rejects is re-decoded by the generic path from the same
// position, so errors and their positions are those of the generic
// decoder.
type StreamDecoder struct {
	c         *Codec
	r         *streamReader
	width     int
	blocksPer int
	worst     int          // trits one pattern can occupy at most
	w         kernelWriter // kernel output, reused across patterns
	lim       robust.DecodeLimits
	patterns  int
	done      bool
}

// NewStreamDecoder returns a streaming decoder for scan loads of the
// given width (≥ 1), reading the compressed stream from src under lim
// (zero fields take the robust defaults).
func (c *Codec) NewStreamDecoder(src StreamSource, width int, lim robust.DecodeLimits) (*StreamDecoder, error) {
	lim = lim.WithDefaults()
	if width < 1 {
		return nil, fmt.Errorf("core: stream width %d, want >= 1: %w", width, robust.ErrCorrupt)
	}
	if width > lim.MaxWidth {
		return nil, fmt.Errorf("core: stream width %d exceeds limit %d: %w", width, lim.MaxWidth, robust.ErrLimitExceeded)
	}
	blocksPer := (width + c.k - 1) / c.k
	return &StreamDecoder{
		c: c, r: &streamReader{src: src}, width: width,
		blocksPer: blocksPer, worst: c.worstBits(blocksPer), lim: lim,
	}, nil
}

// ReadPattern decodes and returns the next scan load, or io.EOF when
// the stream ended cleanly at a pattern boundary. Any other condition
// — truncation mid-pattern, an invalid codeword, a source error, or a
// pattern count beyond the limits — is a classified error.
func (d *StreamDecoder) ReadPattern() (*bitvec.Cube, error) {
	if d.done {
		return nil, io.EOF
	}
	if err := d.r.ensure(1); err != nil {
		if errors.Is(err, ErrTruncated) && d.r.unread() == 0 {
			// No trits left and the source is drained: clean end.
			d.done = true
			return nil, io.EOF
		}
		return nil, fmt.Errorf("core: pattern %d: %w", d.patterns, err)
	}
	if d.patterns >= d.lim.MaxPatterns {
		return nil, fmt.Errorf("core: stream exceeds %d patterns: %w", d.lim.MaxPatterns, robust.ErrLimitExceeded)
	}
	if p, ok := d.readPatternFast(); ok {
		d.patterns++
		return p, nil
	}
	out, _, err := decodeBlocksPartial(d.c, d.r, d.blocksPer)
	if err != nil {
		return nil, fmt.Errorf("core: pattern %d: %w", d.patterns, err)
	}
	d.patterns++
	return out.Slice(0, d.width), nil
}

// readPatternFast decodes the next pattern with the per-K kernel.
// ok=false leaves the reader where it was, for the generic path: the
// codec has no decode kernel, or the kernel met something it does not
// vouch for (a malformed codeword, or data behind the end of what the
// source delivered before draining or failing).
func (d *StreamDecoder) readPatternFast() (*bitvec.Cube, bool) {
	if !d.c.hasDecodeKernel() {
		return nil, false
	}
	r := d.r
	r.prefetch(d.worst)
	care, val := r.buf.RawWords()
	d.w.reset(d.blocksPer * d.c.k)
	pos, ok := d.c.kdec(d.c, care, val, r.buf.Len(), r.pos, d.blocksPer, &d.w)
	if !ok {
		return nil, false
	}
	r.consumed += pos - r.pos
	r.pos = pos
	return bitvec.NewCubeCopyWords(d.width, d.w.care, d.w.val), true
}

// Patterns returns the number of patterns decoded so far.
func (d *StreamDecoder) Patterns() int { return d.patterns }

// TritsConsumed returns the number of stream trits consumed so far.
func (d *StreamDecoder) TritsConsumed() int { return d.r.consumed }

// MaxBuffered returns the decoder's buffer high-water mark in trits,
// which the memory-pin tests assert is independent of pattern count.
func (d *StreamDecoder) MaxBuffered() int { return d.r.maxBuf }

// CubeSource adapts an in-memory compressed cube as a one-segment
// StreamSource, for decoding a stored stream through the streaming
// path (and for differential tests against the in-memory decoder).
type CubeSource struct {
	c    *bitvec.Cube
	done bool
}

// NewCubeSource returns a StreamSource yielding c as a single segment.
func NewCubeSource(c *bitvec.Cube) *CubeSource { return &CubeSource{c: c} }

// ReadStream yields the cube once, then io.EOF.
func (s *CubeSource) ReadStream() (*bitvec.Cube, error) {
	if s.done {
		return nil, io.EOF
	}
	s.done = true
	return s.c, nil
}

package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/robust"
)

// This file is the constant-memory streaming decoder of the 9C codec.
// Encoding is an offline step over the whole T_D (Encode); decoding is
// what the paper streams, as the ATE ships T_E into an on-chip decoder.
// The streaming decoder processes one pattern (and inside it, one
// block) at a time with working state proportional to the scan width
// plus whatever segment the transport hands over — never to the
// pattern count. It is the only decoder: DecodeSet and DecodeCube run
// it over a CubeSource.

// StreamSource yields successive segments of a compressed 9C stream.
// It returns io.EOF after the final segment. Segment boundaries carry
// no meaning; only the concatenated trit sequence does. Sources that
// verify integrity incrementally (container.ChunkReader) return their
// classified error in place of the segment that failed verification.
//
// A segment is valid only until the next ReadStream call: a source may
// reuse the segment's memory for the next one (container.ChunkReader
// does), so a caller copies whatever it still needs before it asks
// again.
type StreamSource interface {
	ReadStream() (*bitvec.Cube, error)
}

// maxPooledTrits bounds the carry and kernel scratch a released
// decoder may take back to the pool: 2x container.DefaultChunkTrits,
// so a hostile stream that grew one cannot keep the memory resident.
const maxPooledTrits = 1 << 16

// streamReader is the one block reader of the generic decoder: it
// feeds codeword bits and word-blitted mismatch data from a
// StreamSource. Reads run on the current segment in place; only a read
// that spans a seam copies. Before it asks the source for the next
// segment, which may overwrite the current one, fill moves the unread
// tail into carry, then appends just the leading trits of the new
// segment the pending read asks for (at most one worst-case pattern).
// Once pos passes the seam the reader returns to the segment in place.
// So the carry never holds more than the tail plus one read, whatever
// the segment size, and a seam costs a copy of about that much.
type streamReader struct {
	src      StreamSource
	buf      *bitvec.Cube // what reads see: seg in place, or view
	seg      *bitvec.Cube // current segment, valid until the next ReadStream
	carry    bitvec.CubeBuilder
	view     bitvec.Cube // carry's trits, repointed after each append
	carrying bool        // buf is view
	seam     int         // while carrying: carry position of seg's first trit
	carried  int         // while carrying: leading trits of seg in carry
	pos      int
	consumed int // total trits consumed, for error positions
	srcDone  bool
	// srcErr latches the first source error. The kernel path prefetches
	// ahead of what decoding strictly needs, so the error may be met
	// early; it is re-delivered only once a read actually needs trits
	// behind it, exactly where the generic path would have met it.
	srcErr   error
	maxCarry int // high-water mark of carry.Len(), pinned by memory tests
}

func (r *streamReader) unread() int {
	if r.buf == nil {
		return 0
	}
	return r.buf.Len() - r.pos
}

// fill makes at least n unread trits available, if the source has
// them. It returns nil once they are, io.EOF when the source drained
// first (latched in srcDone) and the source's error when it failed
// first (latched in srcErr).
func (r *streamReader) fill(n int) error {
	for {
		if r.carrying && r.seg != nil && r.pos >= r.seam {
			r.buf, r.pos, r.carrying = r.seg, r.pos-r.seam, false
		}
		short := n - r.unread()
		if short <= 0 {
			return nil
		}
		if r.carrying && r.seg != nil && r.carried < r.seg.Len() {
			add := min(short, r.seg.Len()-r.carried)
			r.carry.AppendCubeRange(r.seg, r.carried, r.carried+add)
			r.carried += add
			r.viewCarry()
			continue
		}
		if r.srcDone {
			return io.EOF
		}
		if r.srcErr != nil {
			return r.srcErr
		}
		r.stash()
		seg, err := r.src.ReadStream()
		if err != nil {
			if err == io.EOF {
				r.srcDone = true
			} else {
				r.srcErr = err
			}
			return err
		}
		if seg != nil && seg.Len() > 0 {
			r.seg, r.seam, r.carried = seg, r.carry.Len(), 0
		}
	}
}

// stash moves the unread tail into the carry and drops the segment, so
// nothing left to read lives in memory the next ReadStream may reuse.
// While carrying, fill has already copied the whole segment.
func (r *streamReader) stash() {
	if r.carrying {
		r.carry.Discard(r.pos)
	} else {
		r.carry.Discard(r.carry.Len())
		if r.unread() > 0 {
			r.carry.AppendCubeRange(r.buf, r.pos, r.buf.Len())
		}
	}
	r.pos, r.seg, r.carrying = 0, nil, true
	r.viewCarry()
}

// viewCarry points buf at the carry's current trits (nil while the
// carry is empty).
func (r *streamReader) viewCarry() {
	if r.carry.Len() == 0 {
		r.buf = nil
		return
	}
	r.carry.ViewInto(&r.view)
	r.buf = &r.view
	r.maxCarry = max(r.maxCarry, r.carry.Len())
}

// ensure makes at least n unread trits available, fetching segments as
// needed. A stream that ends first reports ErrTruncated; a source
// error (e.g. a chunk checksum failure) propagates as-is.
func (r *streamReader) ensure(n int) error {
	if r.unread() >= n {
		return nil
	}
	if err := r.fill(n); err != nil {
		if err == io.EOF {
			return ErrTruncated
		}
		return err
	}
	return nil
}

// prefetch buffers until at least n unread trits are available, the
// source is drained, or it has failed. It never reports the failure:
// that stays latched for ensure to deliver on demand.
func (r *streamReader) prefetch(n int) {
	_ = r.fill(n) // latched in srcDone / srcErr
}

// readBit reads one codeword bit; X is rejected (codewords are always
// fully specified).
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
// pulling segments from the source on demand. It reads each segment in
// place and copies only across seams, into a carry of at most the
// unread tail plus one worst-case pattern; robust.DecodeLimits are
// enforced incrementally — the width bound at construction, the
// pattern bound as patterns are emitted — so a hostile stream can
// never force an allocation proportional to a forged length field.
// However the stream is segmented, the decoded patterns are those of
// DecodeSet over the concatenated stream.
//
// Codecs with a decode kernel run it over the buffered planes: each
// pattern first prefetches one worst-case pattern of trits (or up to
// the end of the source), then decodes in one kernel call — to planes
// for ReadPattern, straight to 01X bytes for AppendText. Anything the
// kernel rejects is re-decoded by the generic path from the same
// position, so errors and their positions are those of the generic
// decoder.
//
// Decoders come from a pool: Release hands one back with its carry and
// kernel scratch, so a warm decode loop allocates nothing per pattern
// or per segment.
type StreamDecoder struct {
	c         *Codec
	r         streamReader
	width     int
	blocksPer int
	worst     int          // trits one pattern can occupy at most
	w         kernelWriter // kernel output, reused across patterns
	lim       robust.DecodeLimits
	patterns  int
	done      bool
}

// decoderPool recycles stream decoders, with their carry and kernel
// scratch, between NewStreamDecoder and Release.
var decoderPool = sync.Pool{New: func() any { return new(StreamDecoder) }}

// NewStreamDecoder returns a streaming decoder for scan loads of the
// given width (≥ 1), reading the compressed stream from src under lim
// (zero fields take the robust defaults). The decoder comes from a
// pool; Release returns it once the caller is done.
func (c *Codec) NewStreamDecoder(src StreamSource, width int, lim robust.DecodeLimits) (*StreamDecoder, error) {
	lim = lim.WithDefaults()
	if width < 1 {
		return nil, fmt.Errorf("core: stream width %d, want >= 1: %w", width, robust.ErrCorrupt)
	}
	if width > lim.MaxWidth {
		return nil, fmt.Errorf("core: stream width %d exceeds limit %d: %w", width, lim.MaxWidth, robust.ErrLimitExceeded)
	}
	blocksPer := (width + c.k - 1) / c.k
	d := decoderPool.Get().(*StreamDecoder)
	carry, view, w := d.r.carry, d.r.view, d.w
	carry.Discard(carry.Len())
	*d = StreamDecoder{
		c: c, r: streamReader{src: src, carry: carry, view: view}, width: width,
		blocksPer: blocksPer, worst: c.worstBits(blocksPer), w: w, lim: lim,
	}
	return d, nil
}

// Release returns the decoder to the pool NewStreamDecoder draws from.
// The caller must not use it afterwards; patterns ReadPattern returned
// own their memory and stay valid. A carry or kernel scratch grown past
// maxPooledTrits is dropped rather than kept.
func (d *StreamDecoder) Release() {
	if d.r.maxCarry > maxPooledTrits {
		d.r.carry = bitvec.CubeBuilder{}
	}
	if 64*cap(d.w.care) > maxPooledTrits {
		d.w = kernelWriter{}
	}
	d.c, d.r.src, d.r.buf, d.r.seg = nil, nil, nil, nil
	d.r.carry.ViewInto(&d.r.view) // drop the view's hold on a dropped carry
	decoderPool.Put(d)
}

// ReadPattern decodes and returns the next scan load, or io.EOF when
// the stream ended cleanly at a pattern boundary. Any other condition
// — truncation mid-pattern, an invalid codeword, a source error, or a
// pattern count beyond the limits — is a classified error.
func (d *StreamDecoder) ReadPattern() (*bitvec.Cube, error) {
	if err := d.begin(); err != nil {
		return nil, err
	}
	if p, ok := d.readPatternFast(); ok {
		d.patterns++
		return p, nil
	}
	return d.readPatternGeneric()
}

// AppendText decodes the next scan load straight to its 01X text,
// appending exactly width bytes to dst. It ends and fails exactly as
// ReadPattern does; on error dst is returned unextended. With a reused
// dst the kernel path allocates nothing.
func (d *StreamDecoder) AppendText(dst []byte) ([]byte, error) {
	if err := d.begin(); err != nil {
		return dst, err
	}
	if out, ok := d.appendTextFast(dst); ok {
		d.patterns++
		return out, nil
	}
	p, err := d.readPatternGeneric()
	if err != nil {
		return dst, err
	}
	return p.AppendTextRange(dst, 0, d.width), nil
}

// begin is the preamble of every pattern read: io.EOF at a clean end,
// a classified error when the stream fails before the pattern starts or
// the pattern would exceed MaxPatterns.
func (d *StreamDecoder) begin() error {
	if d.done {
		return io.EOF
	}
	if err := d.r.ensure(1); err != nil {
		if errors.Is(err, ErrTruncated) && d.r.unread() == 0 {
			// No trits left and the source is drained: clean end.
			d.done = true
			return io.EOF
		}
		return fmt.Errorf("core: pattern %d: %w", d.patterns, err)
	}
	if d.patterns >= d.lim.MaxPatterns {
		return fmt.Errorf("core: stream exceeds %d patterns: %w", d.lim.MaxPatterns, robust.ErrLimitExceeded)
	}
	return nil
}

// readPatternGeneric decodes the next pattern with the generic block
// decoder: the path of codecs without a kernel, and of every pattern a
// kernel declined, so its errors are the classified ones.
func (d *StreamDecoder) readPatternGeneric() (*bitvec.Cube, error) {
	out, err := decodeBlocksPartial(d.c, &d.r, d.blocksPer)
	if err != nil {
		return nil, fmt.Errorf("core: pattern %d: %w", d.patterns, err)
	}
	d.patterns++
	return out.Slice(0, d.width), nil
}

// readPatternFast decodes the next pattern with the plane kernel.
// ok=false leaves the reader where it was, for the generic path: the
// codec has no decode kernel, or the kernel met something it does not
// vouch for (a malformed codeword, or data behind the end of what the
// source delivered before draining or failing).
func (d *StreamDecoder) readPatternFast() (*bitvec.Cube, bool) {
	if !d.c.hasDecodeKernel() {
		return nil, false
	}
	care, val := d.kernelWindow()
	d.w.reset(d.blocksPer * d.c.k)
	pos, ok := decodeKernel(d.c, care, val, d.r.buf.Len(), d.r.pos, d.blocksPer, &d.w)
	if !ok {
		return nil, false
	}
	d.advance(pos)
	return bitvec.NewCubeCopyWords(d.width, d.w.care, d.w.val), true
}

// appendTextFast is readPatternFast for text: the codec's text kernel
// writes the pattern's 01X bytes into dst directly from the stream
// planes. ok=false returns dst unextended and the reader unmoved.
func (d *StreamDecoder) appendTextFast(dst []byte) ([]byte, bool) {
	if !d.c.hasDecodeKernel() {
		return dst, false
	}
	care, val := d.kernelWindow()
	start, n := len(dst), d.blocksPer*d.c.k
	dst = slices.Grow(dst, n+textSlack)
	pos, ok := d.c.ktext(d.c, care, val, d.r.buf.Len(), d.r.pos, d.blocksPer, dst[start:start+n+textSlack])
	if !ok {
		return dst, false
	}
	d.advance(pos)
	return dst[:start+d.width], true
}

// kernelWindow buffers one worst-case pattern of trits (or up to the
// end of what the source delivers) and returns the buffered planes for
// a kernel to read from the current position.
func (d *StreamDecoder) kernelWindow() (care, val []uint64) {
	d.r.prefetch(d.worst)
	return d.r.buf.RawWords()
}

// advance moves the reader past the trits a kernel consumed.
func (d *StreamDecoder) advance(pos int) {
	d.r.consumed += pos - d.r.pos
	d.r.pos = pos
}

// Patterns returns the number of patterns decoded so far.
func (d *StreamDecoder) Patterns() int { return d.patterns }

// TritsConsumed returns the number of stream trits consumed so far.
func (d *StreamDecoder) TritsConsumed() int { return d.r.consumed }

// MaxBuffered returns the high-water mark of the decoder's own buffer,
// the seam carry, in trits: the memory-pin tests assert it depends on
// neither the pattern count nor the segment size.
func (d *StreamDecoder) MaxBuffered() int { return d.r.maxCarry }

// CubeSource adapts an in-memory compressed cube as a one-segment
// StreamSource: DecodeSet and DecodeCube decode a stored stream
// through it.
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

package container

// Chunked v4 ("N9C4") framing. The header is byte-identical to v3
// except that the four stream totals (pattern count, |T_D|, block
// count, |T_E|) are zero placeholders — they live in the trailer, where
// the reader cross-checks them against the chunks it has read — and the
// payload is a sequence of CRC32C-framed chunks instead of two whole
// planes:
//
//	chunk:      uint32 trit count (1..MaxChunkTrits)
//	            value plane, ceil(count/8) bytes
//	            X-mask plane, same size
//	            CRC32C over count + both planes
//	terminator: uint32 zero
//	trailer:    uint32 pattern count, |T_D|, block count, |T_E|
//	            CRC32C over those 16 bytes
//
// Nothing may follow the trailer. Chunk boundaries carry no meaning;
// the concatenated trits are the same T_E a v3 container stores.
// Because every chunk is independently verifiable, a reader can hand
// verified segments to a streaming decoder as they arrive and, in
// lenient mode, salvage everything before the first bad chunk. v4 is
// set-oriented (Width >= 1) so the decoder can frame patterns without
// the trailer.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/robust"
)

// DefaultChunkTrits is the target chunk size: big enough to amortize
// the 12-byte frame overhead (<0.15%), small enough that a verifying
// reader buffers ~8 KiB per chunk.
const DefaultChunkTrits = 1 << 15

// MaxChunkTrits bounds a single chunk's trit count; a larger declared
// count is corruption, rejected before its planes are allocated.
const MaxChunkTrits = 1 << 22

// StreamHeader is what a chunked container needs to know up front.
type StreamHeader struct {
	K      int
	Width  int // scan width, >= 1: v4 containers always hold sets
	Assign core.Assignment
	Name   string
}

// StreamTrailer is the stream totals a chunked container records after
// its final chunk, CRC-protected and cross-checked against the chunks
// actually read.
type StreamTrailer struct {
	Patterns   int
	OrigBits   int
	Blocks     int
	StreamBits int
}

// writeV4 frames an encoded set as a chunked v4 container: the header,
// the stream cut into DefaultChunkTrits slices (the last one shorter),
// the terminator, and the trailer from r's totals. v4 is set-oriented,
// so a bare-cube result (Width 0) is rejected.
func writeV4(w io.Writer, r *core.Result) (err error) {
	if r.Width < 1 {
		return fmt.Errorf("container: chunked width %d, want >= 1", r.Width)
	}
	sp := obs.Active().Span("container.write_chunked")
	cw := &countingWriter{w: w}
	defer func() { observeIO(sp, "container.writes", "container.bytes_written", cw.n, err) }()
	if _, err := cw.Write(buildHeader(Magic4, r.K, 0, r.Width, 0, 0, 0, r.Assign, r.Name)); err != nil {
		return err
	}
	n := r.Stream.Len()
	for off := 0; off < n; off += DefaultChunkTrits {
		if err := emit(cw, r.Stream.Slice(off, min(off+DefaultChunkTrits, n))); err != nil {
			return err
		}
	}
	var tail [24]byte // terminator + trailer + trailer CRC
	binary.LittleEndian.PutUint32(tail[4:], uint32(r.Patterns))
	binary.LittleEndian.PutUint32(tail[8:], uint32(r.OrigBits))
	binary.LittleEndian.PutUint32(tail[12:], uint32(r.Blocks))
	binary.LittleEndian.PutUint32(tail[16:], uint32(n))
	binary.LittleEndian.PutUint32(tail[20:], crc32.Checksum(tail[4:20], castagnoli))
	_, err = cw.Write(tail[:])
	return err
}

// emit writes one framed chunk.
func emit(w io.Writer, c *bitvec.Cube) error {
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(c.Len()))
	val, mask := planes(c)
	h := crc32.New(castagnoli)
	h.Write(cnt[:])
	h.Write(val)
	h.Write(mask)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	for _, b := range [][]byte{cnt[:], val, mask, crc[:]} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ChunkReader reads a chunked v4 container incrementally. It
// implements core.StreamSource: each ReadStream returns one verified
// chunk's trits, so feeding it to a core.StreamDecoder decodes the
// container in bounded memory with every byte CRC-checked before use.
// A chunk that fails verification surfaces as a classified error, and
// every chunk before it has already been delivered intact.
type ChunkReader struct {
	r       io.Reader
	hdr     StreamHeader
	lim     robust.DecodeLimits
	payload int64 // cumulative framed payload bytes, capped by the limits
	trits   int   // trits delivered so far
	trailer *StreamTrailer
	done    bool
}

// NewChunkReader parses the header of a chunked ("N9C4") container and
// returns a reader positioned at the first chunk. Zero limit fields
// take the robust defaults. Non-chunked versions are rejected: use
// Read / ReadWithOptions for those.
func NewChunkReader(rd io.Reader, lim robust.DecodeLimits) (*ChunkReader, error) {
	diag := &Diag{HeaderCRCOK: true, PayloadCRCOK: true}
	h, err := readHeader(rd, diag)
	if err != nil {
		return nil, err
	}
	if h.version != Magic4 {
		return nil, fmt.Errorf("container: %s is not a chunked container: %w", h.version, robust.ErrCorrupt)
	}
	return newChunkReader(rd, h, lim.WithDefaults())
}

// newChunkReader wraps an already-parsed v4 header. The geometry
// checks here mirror the front half of validateGeometry; the totals
// half runs against the trailer once it is reached.
func newChunkReader(rd io.Reader, h *headerInfo, lim robust.DecodeLimits) (*ChunkReader, error) {
	if h.k < 2 || h.k%2 != 0 || h.k > core.MaxK {
		return nil, fmt.Errorf("container: implausible block size K=%d: %w", h.k, robust.ErrCorrupt)
	}
	if h.width < 1 {
		return nil, fmt.Errorf("container: chunked container width %d, want >= 1: %w", h.width, robust.ErrCorrupt)
	}
	if h.width > lim.MaxWidth {
		return nil, fmt.Errorf("container: width %d exceeds limit %d: %w", h.width, lim.MaxWidth, robust.ErrLimitExceeded)
	}
	return &ChunkReader{
		r:   rd,
		hdr: StreamHeader{K: h.k, Width: h.width, Assign: h.assign, Name: h.name},
		lim: lim,
	}, nil
}

// Header returns the parsed stream header.
func (r *ChunkReader) Header() StreamHeader { return r.hdr }

// ReadStream returns the next verified chunk, or io.EOF after the
// terminator and a valid trailer. Errors are classified: a bad chunk
// or trailer CRC is ErrChecksum, an implausible count ErrCorrupt, a
// short read ErrTruncated, cumulative payload beyond the limits
// ErrLimitExceeded.
func (r *ChunkReader) ReadStream() (*bitvec.Cube, error) {
	if r.done {
		return nil, io.EOF
	}
	var cnt [4]byte
	if _, err := io.ReadFull(r.r, cnt[:]); err != nil {
		return nil, fmt.Errorf("container: chunk header: %w: %v", robust.ErrTruncated, err)
	}
	count := int(binary.LittleEndian.Uint32(cnt[:]))
	if count == 0 {
		return nil, r.readTrailer()
	}
	if count > MaxChunkTrits {
		return nil, fmt.Errorf("container: chunk of %d trits exceeds %d: %w", count, MaxChunkTrits, robust.ErrCorrupt)
	}
	nbytes := (count + 7) / 8
	if r.payload += int64(2*nbytes + 8); r.payload > int64(r.lim.MaxPayloadBytes) {
		return nil, fmt.Errorf("container: cumulative payload %d bytes exceeds limit %d: %w", r.payload, r.lim.MaxPayloadBytes, robust.ErrLimitExceeded)
	}
	buf := make([]byte, 2*nbytes+4)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return nil, fmt.Errorf("container: chunk body: %w: %v", robust.ErrTruncated, err)
	}
	val, mask := buf[:nbytes], buf[nbytes:2*nbytes]
	h := crc32.New(castagnoli)
	h.Write(cnt[:])
	h.Write(buf[:2*nbytes])
	if got, want := h.Sum32(), binary.LittleEndian.Uint32(buf[2*nbytes:]); got != want {
		return nil, fmt.Errorf("container: chunk CRC32C %08x, stored %08x: %w", got, want, robust.ErrChecksum)
	}
	c, _, err := unplanes(val, mask, count, false)
	if err != nil {
		return nil, err
	}
	r.trits += count
	return c, nil
}

// readTrailer verifies the trailer after the zero terminator and that
// nothing follows it, latches done and returns io.EOF so the
// StreamSource contract sees a clean end of stream.
func (r *ChunkReader) readTrailer() error {
	var tr [20]byte
	if _, err := io.ReadFull(r.r, tr[:]); err != nil {
		return fmt.Errorf("container: trailer: %w: %v", robust.ErrTruncated, err)
	}
	if got, want := crc32.Checksum(tr[:16], castagnoli), binary.LittleEndian.Uint32(tr[16:]); got != want {
		return fmt.Errorf("container: trailer CRC32C %08x, stored %08x: %w", got, want, robust.ErrChecksum)
	}
	t := &StreamTrailer{
		Patterns:   int(binary.LittleEndian.Uint32(tr[0:])),
		OrigBits:   int(binary.LittleEndian.Uint32(tr[4:])),
		Blocks:     int(binary.LittleEndian.Uint32(tr[8:])),
		StreamBits: int(binary.LittleEndian.Uint32(tr[12:])),
	}
	if t.StreamBits != r.trits {
		return fmt.Errorf("container: trailer claims %d stream trits, chunks held %d: %w", t.StreamBits, r.trits, robust.ErrCorrupt)
	}
	if err := validateGeometry(r.hdr.K, t.Patterns, r.hdr.Width, t.OrigBits, t.Blocks, t.StreamBits, r.lim); err != nil {
		return err
	}
	var extra [1]byte
	if n, _ := io.ReadFull(r.r, extra[:]); n != 0 {
		return fmt.Errorf("container: trailing bytes: %w", robust.ErrCorrupt)
	}
	r.trailer = t
	r.done = true
	return io.EOF
}

// Trailer returns the verified stream totals, available only after
// ReadStream has returned io.EOF.
func (r *ChunkReader) Trailer() (StreamTrailer, bool) {
	if r.trailer == nil {
		return StreamTrailer{}, false
	}
	return *r.trailer, true
}

// readV4 is the whole-container read path for chunked containers,
// invoked by ReadWithOptions after the shared header parse. Strict
// mode demands every chunk, the terminator and the trailer verify;
// lenient mode salvages the verified prefix and derives the geometry
// by streaming-decoding it when the trailer is unreachable.
func readV4(cr io.Reader, h *headerInfo, opt Options, diag *Diag) (*core.Result, *Diag, error) {
	lim := opt.Limits.WithDefaults()
	chr, err := newChunkReader(cr, h, lim)
	if err != nil {
		return nil, diag, err
	}
	b := bitvec.NewCubeBuilder(0)
	trits := 0
	for {
		seg, err := chr.ReadStream()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !opt.Lenient || robust.Classify(err) == "limit" {
				return nil, diag, err
			}
			// Salvage: keep every chunk before the fault, record it, and
			// reconstruct the geometry below since the trailer is
			// unreachable behind the bad chunk.
			diag.StreamErr = err
			if robust.Classify(err) == "checksum" {
				diag.PayloadCRCOK = false
			}
			break
		}
		b.AppendCube(seg)
		trits += seg.Len()
	}
	stream := b.Build()

	if tr, ok := chr.Trailer(); ok {
		h.patterns, h.origBits, h.blocks, h.streamBits = tr.Patterns, tr.OrigBits, tr.Blocks, tr.StreamBits
		return finishResult(h, stream, opt.Lenient, diag)
	}

	// No trailer: count the patterns that decode cleanly from the
	// salvaged prefix and report the geometry they span. finishResult
	// sees diag.StreamErr set and skips re-validation; the caller
	// follows up with a partial decode, exactly as for a damaged v3.
	cdc, err := core.NewWithAssignment(h.k, h.assign)
	if err != nil {
		return nil, diag, fmt.Errorf("container: %w: %w", robust.ErrCorrupt, err)
	}
	dec, err := cdc.NewStreamDecoder(core.NewCubeSource(stream), h.width, lim)
	if err != nil {
		return nil, diag, err
	}
	patterns := 0
	for {
		if _, err := dec.ReadPattern(); err != nil {
			break
		}
		patterns++
	}
	blocksPer := (h.width + h.k - 1) / h.k
	h.patterns, h.origBits = patterns, patterns*h.width
	h.blocks, h.streamBits = patterns*blocksPer, stream.Len()
	return finishResult(h, stream, opt.Lenient, diag)
}

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
	"sync"

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

// MarshalV4 frames an encoded set as a chunked v4 container in one
// exact-size buffer (cap == len): the header, the stream cut into
// DefaultChunkTrits chunks (the last one shorter), the terminator and
// the trailer from r's totals. A chunk starts on a plane word, so its
// planes are read straight from the stream words, and each CRC runs
// over the bytes already in place. v4 is set-oriented, so a bare-cube
// result (Width 0) is rejected, as is a set name with a control byte.
// WriteVersion(w, r, Magic4) writes exactly these bytes.
func MarshalV4(r *core.Result) ([]byte, error) {
	return frameV4(nil, r)
}

// frameV4 is the one v4 writer behind MarshalV4 and WriteVersion: it
// frames r and, for a non-nil w, writes the bytes to w. The telemetry
// counts the bytes w accepted and its error, or the buffer's length
// when w is nil.
func frameV4(w io.Writer, r *core.Result) (out []byte, err error) {
	if err := checkName(r.Name); err != nil {
		return nil, err
	}
	if r.Width < 1 {
		return nil, fmt.Errorf("container: chunked width %d, want >= 1", r.Width)
	}
	sp := obs.Active().Span("container.write_chunked")
	var written int
	defer func() { observeIO(sp, "container.writes", "container.bytes_written", int64(written), err) }()
	out = appendV4(r)
	if w == nil {
		written = len(out)
		return out, nil
	}
	written, err = w.Write(out)
	return out, err
}

// appendV4 lays out r's v4 container in one exact-size buffer.
func appendV4(r *core.Result) []byte {
	n := r.Stream.Len()
	size := headerSize(r.Name) + 24 // terminator + trailer + trailer CRC
	for off := 0; off < n; off += DefaultChunkTrits {
		size += frameBytes(min(DefaultChunkTrits, n-off))
	}
	out := appendHeader(make([]byte, 0, size), Magic4, r.K, 0, r.Width, 0, 0, 0, r.Assign, r.Name)
	care, val := r.Stream.RawWords()
	for off := 0; off < n; off += DefaultChunkTrits {
		cn := min(DefaultChunkTrits, n-off)
		nb := (cn + 7) / 8
		start := len(out)
		out = binary.LittleEndian.AppendUint32(out, uint32(cn))
		out = out[:start+4+2*nb]
		putPlanes(out[start+4:start+4+nb], out[start+4+nb:], care[off/64:], val[off/64:], cn)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[start:], castagnoli))
	}
	out = binary.LittleEndian.AppendUint32(out, 0)
	tr := len(out)
	out = binary.LittleEndian.AppendUint32(out, uint32(r.Patterns))
	out = binary.LittleEndian.AppendUint32(out, uint32(r.OrigBits))
	out = binary.LittleEndian.AppendUint32(out, uint32(r.Blocks))
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[tr:], castagnoli))
}

// ChunkReader reads a chunked v4 container incrementally. It
// implements core.StreamSource: each ReadStream returns one verified
// chunk's trits, so feeding it to a core.StreamDecoder decodes the
// container in bounded memory with every byte CRC-checked before use.
// A chunk that fails verification surfaces as a classified error, and
// every chunk before it has already been delivered intact.
//
// Each chunk is read into one reused frame buffer, checked by one
// CRC32C pass and converted by one validating pass into reused plane
// words, so a segment is valid only until the next ReadStream.
// Readers come from a pool: Release hands one back with its buffers.
type ChunkReader struct {
	r       io.Reader
	hdr     StreamHeader
	lim     robust.DecodeLimits
	payload int64 // cumulative plane bytes, capped by the limits
	trits   int   // trits delivered so far
	trailer StreamTrailer
	done    bool         // the trailer verified
	frame   []byte       // the chunk being read: count, planes, CRC
	care    []uint64     // the current segment's care plane
	val     []uint64     // the current segment's val plane
	seg     *bitvec.Cube // the current segment, over care and val
}

// maxPooledTrits bounds the chunk a released reader's buffers may hold
// and still go back to the pool: 2x DefaultChunkTrits, so one hostile
// MaxChunkTrits chunk cannot keep its buffers resident.
const maxPooledTrits = 2 * DefaultChunkTrits

// chunkReaderPool recycles readers, with their frame and plane
// buffers, between NewChunkReader and Release.
var chunkReaderPool = sync.Pool{New: func() any { return new(ChunkReader) }}

// NewChunkReader parses the header of a chunked ("N9C4") container and
// returns a reader positioned at the first chunk. Zero limit fields
// take the robust defaults. Non-chunked versions are rejected: use
// Read / ReadWithOptions for those. The reader comes from a pool;
// Release returns it once the caller is done.
func NewChunkReader(rd io.Reader, lim robust.DecodeLimits) (*ChunkReader, error) {
	r := chunkReaderPool.Get().(*ChunkReader)
	var h headerInfo
	err := readHeader(rd, &Diag{}, &h, &r.frame)
	if err == nil && h.version != Magic4 {
		err = fmt.Errorf("container: %s is not a chunked container: %w", h.version, robust.ErrCorrupt)
	}
	if err == nil {
		err = r.reset(rd, &h, lim.WithDefaults())
	}
	if err != nil {
		r.Release()
		return nil, err
	}
	return r, nil
}

// reset points r at a stream whose v4 header h is already parsed,
// keeping its buffers. The geometry checks here mirror the front half
// of validateGeometry; the totals half runs against the trailer once
// it is reached.
func (r *ChunkReader) reset(rd io.Reader, h *headerInfo, lim robust.DecodeLimits) error {
	if h.k < 2 || h.k%2 != 0 || h.k > core.MaxK {
		return fmt.Errorf("container: implausible block size K=%d: %w", h.k, robust.ErrCorrupt)
	}
	if h.width < 1 {
		return fmt.Errorf("container: chunked container width %d, want >= 1: %w", h.width, robust.ErrCorrupt)
	}
	if h.width > lim.MaxWidth {
		return fmt.Errorf("container: width %d exceeds limit %d: %w", h.width, lim.MaxWidth, robust.ErrLimitExceeded)
	}
	*r = ChunkReader{
		r:     rd,
		hdr:   StreamHeader{K: h.k, Width: h.width, Assign: h.assign, Name: h.name},
		lim:   lim,
		frame: r.frame, care: r.care, val: r.val, seg: r.seg,
	}
	return nil
}

// Release returns the reader to the pool NewChunkReader draws from.
// The caller must not use it, or a segment it returned, afterwards.
// Buffers grown past maxPooledTrits are dropped rather than kept.
func (r *ChunkReader) Release() {
	if cap(r.frame) > frameBytes(maxPooledTrits) {
		r.frame = nil
	}
	if 64*cap(r.care) > maxPooledTrits {
		r.care, r.val = nil, nil
		if r.seg != nil {
			r.seg.ResetWords(0, nil, nil)
		}
	}
	r.r = nil
	chunkReaderPool.Put(r)
}

// Header returns the parsed stream header.
func (r *ChunkReader) Header() StreamHeader { return r.hdr }

// frameBytes is the frame size of a chunk of count trits: the count,
// two planes and the CRC.
func frameBytes(count int) int { return 4 + 2*((count+7)/8) + 4 }

// buffer returns the first n bytes of the frame buffer, growing it
// while keeping the chunk count already read into its first 4 bytes.
func (r *ChunkReader) buffer(n int) []byte {
	if cap(r.frame) < n {
		f := make([]byte, n)
		copy(f, r.frame)
		r.frame = f
	}
	r.frame = r.frame[:n]
	return r.frame
}

// ReadStream returns the next verified chunk, or io.EOF after the
// terminator and a valid trailer. Errors are classified: a bad chunk
// or trailer CRC is ErrChecksum, an implausible count ErrCorrupt, a
// short read ErrTruncated, cumulative plane bytes beyond the limits
// ErrLimitExceeded. The segment aliases the reader's buffers: it is
// valid until the next ReadStream.
func (r *ChunkReader) ReadStream() (*bitvec.Cube, error) {
	if r.done {
		return nil, io.EOF
	}
	if _, err := io.ReadFull(r.r, r.buffer(4)); err != nil {
		return nil, fmt.Errorf("container: chunk header: %w: %v", robust.ErrTruncated, err)
	}
	count := int(binary.LittleEndian.Uint32(r.frame))
	if count == 0 {
		return nil, r.readTrailer()
	}
	if count > MaxChunkTrits {
		return nil, fmt.Errorf("container: chunk of %d trits exceeds %d: %w", count, MaxChunkTrits, robust.ErrCorrupt)
	}
	nbytes := (count + 7) / 8
	if r.payload += int64(2 * nbytes); r.payload > int64(r.lim.MaxPayloadBytes) {
		return nil, fmt.Errorf("container: cumulative payload %d bytes exceeds limit %d: %w", r.payload, r.lim.MaxPayloadBytes, robust.ErrLimitExceeded)
	}
	f := r.buffer(frameBytes(count))
	if _, err := io.ReadFull(r.r, f[4:]); err != nil {
		return nil, fmt.Errorf("container: chunk body: %w: %v", robust.ErrTruncated, err)
	}
	body := f[:4+2*nbytes]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(f[len(body):]); got != want {
		return nil, fmt.Errorf("container: chunk CRC32C %08x, stored %08x: %w", got, want, robust.ErrChecksum)
	}
	if words := (count + 63) / 64; cap(r.care) < words {
		r.care, r.val = make([]uint64, words), make([]uint64, words)
	}
	if _, err := unplanesInto(r.care, r.val, body[4:4+nbytes], body[4+nbytes:], count, false); err != nil {
		return nil, err
	}
	if r.seg == nil {
		r.seg = bitvec.CubeOfWords(count, r.care, r.val)
	} else {
		r.seg.ResetWords(count, r.care, r.val)
	}
	r.trits += count
	return r.seg, nil
}

// readTrailer verifies the trailer after the zero terminator and that
// nothing follows it, latches done and returns io.EOF so the
// StreamSource contract sees a clean end of stream.
func (r *ChunkReader) readTrailer() error {
	tr := r.buffer(20)
	if _, err := io.ReadFull(r.r, tr); err != nil {
		return fmt.Errorf("container: trailer: %w: %v", robust.ErrTruncated, err)
	}
	if got, want := crc32.Checksum(tr[:16], castagnoli), binary.LittleEndian.Uint32(tr[16:]); got != want {
		return fmt.Errorf("container: trailer CRC32C %08x, stored %08x: %w", got, want, robust.ErrChecksum)
	}
	t := StreamTrailer{
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
	if n, _ := io.ReadFull(r.r, r.buffer(1)); n != 0 {
		return fmt.Errorf("container: trailing bytes: %w", robust.ErrCorrupt)
	}
	r.trailer = t
	r.done = true
	return io.EOF
}

// Trailer returns the verified stream totals, available only after
// ReadStream has returned io.EOF.
func (r *ChunkReader) Trailer() (StreamTrailer, bool) { return r.trailer, r.done }

// readV4 is the whole-container read path for chunked containers,
// invoked by ReadWithOptions after the shared header parse. Strict
// mode demands every chunk, the terminator and the trailer verify;
// lenient mode salvages the verified prefix and derives the geometry
// by streaming-decoding it when the trailer is unreachable.
func readV4(cr io.Reader, h *headerInfo, opt Options, diag *Diag) (*core.Result, *Diag, error) {
	lim := opt.Limits.WithDefaults()
	chr := chunkReaderPool.Get().(*ChunkReader)
	defer chr.Release()
	if err := chr.reset(cr, h, lim); err != nil {
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
	cdc, err := core.Shared(h.k, h.assign)
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

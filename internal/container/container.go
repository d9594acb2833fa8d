// Package container defines the on-disk format for 9C-compressed test
// data: a small self-describing header followed by the packed T_E
// payload. Because T_E is ternary — leftover don't-cares survive
// compression — the payload stores two planes, the value bits and the
// X mask, so a stored stream can still be filled at load time.
//
// Layout (all integers little-endian uint32 unless noted):
//
//	offset  field
//	0       magic "N9C3" (this whole-payload layout) or "N9C4" (the
//	        chunked layout every writer emits, see chunk.go); v3 is
//	        read so .9c files from earlier ninec runs still decode
//	4       block size K
//	8       pattern count (0 when a bare cube was encoded)
//	12      scan width    (0 when a bare cube was encoded)
//	16      original bit count |T_D|
//	20      block count
//	24      stream bit count |T_E|
//	28      codeword table: 9 × (uint8 length + 8-byte zero-padded
//	        codeword ASCII)
//	...     set name: uint16 length + bytes, no control byte, so a
//	        decompressed set keeps its original label instead of the
//	        container path
//	...     header CRC32C: over every byte above, magic included
//	...     value plane, ceil(|T_E|/8) bytes, bit i at byte i/8 bit i%8
//	...     X-mask plane, same size (bit set = position is X)
//	...     payload CRC32C: over both planes
//
// Reading is hostile-input hardened: header fields are cross-checked
// against each other and against robust.DecodeLimits before a single
// payload byte is allocated, the CRCs detect any bit flip, and
// every failure wraps one of the robust taxonomy sentinels
// (ErrTruncated / ErrCorrupt / ErrLimitExceeded / ErrChecksum).
package container

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/robust"
)

// Magic identifies the whole-payload v3 format (CRC-protected). No
// tool writes it any more; it stays readable for .9c files that earlier
// ninec runs wrote, and WriteVersion still emits it so tests and fault-
// injection campaigns can exercise that reader on genuine v3 bytes
// (TestGoldenContainers pins them).
const Magic = "N9C3"

// Magic4 identifies the chunked streaming format every writer emits:
// the same CRC-checked header, but the payload split into CRC32C-framed
// chunks (see chunk.go) so a decoder can verify-and-emit incrementally
// and salvage up to the first bad chunk.
const Magic4 = "N9C4"

// maxNameLen bounds the stored set name; longer names are truncated on
// write and rejected on read.
const maxNameLen = 4096

// castagnoli is the CRC32C polynomial table used for both checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteVersion serializes r, set name and CRC32C checksums included,
// in the format selected by magic. Production code passes Magic4, which
// requires a pattern-set result (Width ≥ 1): the chunked format is
// set-oriented so a streaming decoder can frame patterns. Magic (v3) is
// accepted only to produce reader fixtures; see its doc comment. A set
// name holding a control byte is refused, since the 01X text a decode
// emits could not carry it.
func WriteVersion(w io.Writer, r *core.Result, magic string) (err error) {
	if err := checkName(r.Name); err != nil {
		return err
	}
	if magic == Magic4 {
		return writeV4(w, r)
	}
	if magic != Magic {
		return fmt.Errorf("container: unknown version %q", magic)
	}
	sp := obs.Active().Span("container.write")
	cw := &countingWriter{w: w}
	defer func() { observeIO(sp, "container.writes", "container.bytes_written", cw.n, err) }()

	hdr := buildHeader(magic, r.K, r.Patterns, r.Width, r.OrigBits, r.Blocks, r.Stream.Len(), r.Assign, r.Name)
	if _, err := cw.Write(hdr); err != nil {
		return err
	}

	val, mask := planes(r.Stream)
	if _, err := cw.Write(val); err != nil {
		return err
	}
	if _, err := cw.Write(mask); err != nil {
		return err
	}
	h := crc32.New(castagnoli)
	h.Write(val)
	h.Write(mask)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	_, err = cw.Write(crc[:])
	return err
}

// checkName rejects a set name with a control byte (below 0x20, or
// DEL): decoded 01X text names the set on a '#' comment line, and a
// newline there would turn the rest of the name into a pattern row.
func checkName(name string) error {
	for i := 0; i < len(name); i++ {
		if c := name[i]; c < 0x20 || c == 0x7f {
			return fmt.Errorf("container: set name has control byte %#02x at offset %d", c, i)
		}
	}
	return nil
}

// buildHeader assembles the header bytes, magic through set name plus
// the header CRC32C. The same layout serves v3 and v4; a v4 header
// stores zero for the four stream totals, which live in the trailer
// instead.
func buildHeader(magic string, k, patterns, width, origBits, blocks, streamBits int, assign core.Assignment, name string) []byte {
	var hdr bytes.Buffer
	hdr.WriteString(magic)
	var fields [24]byte
	binary.LittleEndian.PutUint32(fields[0:], uint32(k))
	binary.LittleEndian.PutUint32(fields[4:], uint32(patterns))
	binary.LittleEndian.PutUint32(fields[8:], uint32(width))
	binary.LittleEndian.PutUint32(fields[12:], uint32(origBits))
	binary.LittleEndian.PutUint32(fields[16:], uint32(blocks))
	binary.LittleEndian.PutUint32(fields[20:], uint32(streamBits))
	hdr.Write(fields[:])
	for cs := core.CaseAll0; cs <= core.CaseMisMis; cs++ {
		code := assign.Code(cs)
		var entry [9]byte
		entry[0] = byte(len(code))
		copy(entry[1:], code)
		hdr.Write(entry[:])
	}
	if len(name) > maxNameLen {
		name = name[:maxNameLen]
	}
	var nlen [2]byte
	binary.LittleEndian.PutUint16(nlen[:], uint16(len(name)))
	hdr.Write(nlen[:])
	hdr.WriteString(name)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(hdr.Bytes(), castagnoli))
	hdr.Write(crc[:])
	return hdr.Bytes()
}

// Options selects how strictly ReadWithOptions treats the input.
type Options struct {
	// Limits bounds header-driven allocations; zero fields take the
	// robust defaults.
	Limits robust.DecodeLimits
	// Lenient makes the reader salvage what it can from a corrupt
	// payload instead of rejecting the container: CRC mismatches,
	// value/mask plane conflicts, nonzero padding and an undecodable
	// stream are recorded in Diag rather than returned as errors, and
	// Counts are left zero. Header faults and limit violations are
	// still fatal — without a trustworthy geometry there is nothing to
	// salvage. The caller is expected to follow up with
	// core.DecodeSetPartial / DecodeCubePartial.
	Lenient bool
}

// Diag reports what the reader observed, mostly for lenient mode.
type Diag struct {
	// Version is the magic of the container that was read.
	Version string
	// HeaderCRCOK / PayloadCRCOK report the checksum outcomes.
	HeaderCRCOK, PayloadCRCOK bool
	// PlaneConflicts counts payload bits that were both X and 1; in
	// lenient mode they demote to X instead of failing the read.
	PlaneConflicts int
	// StreamErr is the lenient-mode record of why the stored stream
	// failed validation (nil when it decoded cleanly).
	StreamErr error
}

// Read parses a container back into a Result under the default decode
// limits (Counts are recomputed by re-classifying on decode when
// needed; the stored stream is authoritative). Both "N9C4" and the
// older "N9C3" are accepted; any other magic is ErrCorrupt.
func Read(rd io.Reader) (*core.Result, error) {
	return ReadWithLimits(rd, robust.DecodeLimits{})
}

// ReadWithLimits is Read with caller-supplied decode limits, enforced
// against the untrusted header before any payload allocation.
func ReadWithLimits(rd io.Reader, lim robust.DecodeLimits) (*core.Result, error) {
	res, _, err := ReadWithOptions(rd, Options{Limits: lim})
	return res, err
}

// ReadWithOptions parses a container under the given options and
// reports diagnostics alongside the result.
func ReadWithOptions(rd io.Reader, opt Options) (res *core.Result, diag *Diag, err error) {
	sp := obs.Active().Span("container.read")
	cr := &countingReader{r: rd}
	defer func() { observeIO(sp, "container.reads", "container.bytes_read", cr.n, err) }()
	lim := opt.Limits.WithDefaults()
	diag = &Diag{HeaderCRCOK: true, PayloadCRCOK: true}

	h, err := readHeader(cr, diag)
	if err != nil {
		return nil, diag, err
	}
	if h.version == Magic4 {
		return readV4(cr, h, opt, diag)
	}
	// Geometry validation runs after the header CRC so field
	// corruption reports as a checksum fault, but strictly before the
	// payload planes are sized from the untrusted stream bit count.
	if err := validateGeometry(h.k, h.patterns, h.width, h.origBits, h.blocks, h.streamBits, lim); err != nil {
		return nil, diag, err
	}

	readFull := func(buf []byte, what string) error {
		if _, err := io.ReadFull(cr, buf); err != nil {
			return fmt.Errorf("container: %s: %w: %v", what, robust.ErrTruncated, err)
		}
		return nil
	}
	nbytes := (h.streamBits + 7) / 8
	val := make([]byte, nbytes)
	mask := make([]byte, nbytes)
	if err := readFull(val, "value plane"); err != nil {
		return nil, diag, err
	}
	if err := readFull(mask, "mask plane"); err != nil {
		return nil, diag, err
	}
	var crc [4]byte
	if err := readFull(crc[:], "payload checksum"); err != nil {
		return nil, diag, err
	}
	pcrc := crc32.New(castagnoli)
	pcrc.Write(val)
	pcrc.Write(mask)
	if got, want := pcrc.Sum32(), binary.LittleEndian.Uint32(crc[:]); got != want {
		diag.PayloadCRCOK = false
		if !opt.Lenient {
			return nil, diag, fmt.Errorf("container: payload CRC32C %08x, stored %08x: %w", got, want, robust.ErrChecksum)
		}
	}
	if n, _ := cr.Read(make([]byte, 1)); n != 0 {
		return nil, diag, fmt.Errorf("container: trailing bytes: %w", robust.ErrCorrupt)
	}
	stream, conflicts, err := unplanes(val, mask, h.streamBits, opt.Lenient)
	diag.PlaneConflicts = conflicts
	if err != nil {
		return nil, diag, err
	}
	return finishResult(h, stream, opt.Lenient, diag)
}

// headerInfo is the parsed header of either container version: geometry
// fields, codeword assignment and set name. For v4 the four stream
// totals are zero placeholders; the real values live in the trailer.
type headerInfo struct {
	version                                          string
	k, patterns, width, origBits, blocks, streamBits int
	assign                                           core.Assignment
	name                                             string
}

// readHeader parses magic through the header checksum, updating diag
// as it goes. Shared by the whole-payload read path and the chunked v4
// reader.
func readHeader(cr io.Reader, diag *Diag) (*headerInfo, error) {
	hcrc := crc32.New(castagnoli)
	readFull := func(buf []byte, what string) error {
		if _, err := io.ReadFull(cr, buf); err != nil {
			return fmt.Errorf("container: %s: %w: %v", what, robust.ErrTruncated, err)
		}
		return nil
	}

	h := &headerInfo{}
	var magic [4]byte
	if err := readFull(magic[:], "magic"); err != nil {
		return nil, err
	}
	hcrc.Write(magic[:])
	h.version = string(magic[:])
	diag.Version = h.version
	if h.version != Magic && h.version != Magic4 {
		return nil, fmt.Errorf("container: bad magic %q: %w", magic[:], robust.ErrCorrupt)
	}

	var hdr [24]byte
	if err := readFull(hdr[:], "header"); err != nil {
		return nil, err
	}
	hcrc.Write(hdr[:])
	h.k = int(binary.LittleEndian.Uint32(hdr[0:]))
	h.patterns = int(binary.LittleEndian.Uint32(hdr[4:]))
	h.width = int(binary.LittleEndian.Uint32(hdr[8:]))
	h.origBits = int(binary.LittleEndian.Uint32(hdr[12:]))
	h.blocks = int(binary.LittleEndian.Uint32(hdr[16:]))
	h.streamBits = int(binary.LittleEndian.Uint32(hdr[20:]))

	codes := make([]string, core.NumCases)
	for i := range codes {
		var entry [9]byte
		if err := readFull(entry[:], "codeword table"); err != nil {
			return nil, err
		}
		hcrc.Write(entry[:])
		n := int(entry[0])
		if n < 1 || n > 8 {
			return nil, fmt.Errorf("container: codeword %d has length %d: %w", i+1, n, robust.ErrCorrupt)
		}
		code := string(entry[1 : 1+n])
		if strings.Trim(code, "01") != "" {
			return nil, fmt.Errorf("container: codeword %d is not binary: %q: %w", i+1, code, robust.ErrCorrupt)
		}
		codes[i] = code
	}
	assign, err := core.AssignmentFromCodes(codes)
	if err != nil {
		return nil, fmt.Errorf("container: %w: %w", robust.ErrCorrupt, err)
	}
	h.assign = assign

	var nlen [2]byte
	if err := readFull(nlen[:], "set name length"); err != nil {
		return nil, err
	}
	hcrc.Write(nlen[:])
	n := int(binary.LittleEndian.Uint16(nlen[:]))
	if n > maxNameLen {
		return nil, fmt.Errorf("container: set name length %d exceeds %d: %w", n, maxNameLen, robust.ErrLimitExceeded)
	}
	buf := make([]byte, n)
	if err := readFull(buf, "set name"); err != nil {
		return nil, err
	}
	hcrc.Write(buf)
	h.name = string(buf)

	var crc [4]byte
	if err := readFull(crc[:], "header checksum"); err != nil {
		return nil, err
	}
	if got, want := hcrc.Sum32(), binary.LittleEndian.Uint32(crc[:]); got != want {
		// A bad header CRC is fatal even in lenient mode: the
		// geometry that partial decode depends on is untrustworthy.
		diag.HeaderCRCOK = false
		return nil, fmt.Errorf("container: header CRC32C %08x, stored %08x: %w", got, want, robust.ErrChecksum)
	}
	// Checked after the CRC, so a bit flip in the name reports as a
	// checksum fault and only a faithfully stored bad name as corrupt.
	if err := checkName(h.name); err != nil {
		return nil, fmt.Errorf("%w: %w", err, robust.ErrCorrupt)
	}
	return h, nil
}

// finishResult builds the Result from a verified stream and geometry,
// recovering the codeword statistics (and validating the stream) in one
// walk of its blocks. validateGeometry has pinned blocks to the
// geometry, so a stream that walks cleanly also decodes. Lenient mode
// records the failure instead and leaves Counts zero: the caller
// salvages via partial decode.
func finishResult(h *headerInfo, stream *bitvec.Cube, lenient bool, diag *Diag) (*core.Result, *Diag, error) {
	r := &core.Result{
		K: h.k, Name: h.name, Assign: h.assign, Stream: stream,
		OrigBits: h.origBits, Blocks: h.blocks, LeftoverX: stream.XCount(),
		Patterns: h.patterns, Width: h.width,
	}
	cdc, err := core.NewWithAssignment(h.k, h.assign)
	if err != nil {
		return nil, diag, fmt.Errorf("container: %w: %w", robust.ErrCorrupt, err)
	}
	if diag.StreamErr != nil {
		// The chunked reader already hit a payload fault; the stream is
		// a salvaged prefix and re-validating it would be misleading.
		return r, diag, nil
	}
	counts, err := core.CountsOfStream(cdc, stream, h.blocks)
	if err != nil {
		if !lenient {
			return nil, diag, fmt.Errorf("container: %w: %w", robust.ErrCorrupt, err)
		}
		diag.StreamErr = err
		return r, diag, nil
	}
	r.Counts = counts
	return r, diag, nil
}

// validateGeometry cross-checks the untrusted header fields against
// each other and against the decode limits. It runs before any
// header-sized allocation, so a forged header can never oversize a
// buffer: the fields must be exactly the ones the encoder would have
// produced for some input, and inside the caller's budget. All
// arithmetic is in int64 so forged 32-bit extremes cannot overflow.
func validateGeometry(k, patterns, width, origBits, blocks, streamBits int, lim robust.DecodeLimits) error {
	if k > core.MaxK {
		return fmt.Errorf("container: implausible block size K=%d: %w", k, robust.ErrCorrupt)
	}
	if k < 2 || k%2 != 0 || origBits < 0 || blocks < 0 || streamBits < 0 {
		return fmt.Errorf("container: implausible header (K=%d orig=%d blocks=%d stream=%d): %w",
			k, origBits, blocks, streamBits, robust.ErrCorrupt)
	}
	if patterns > 0 && width == 0 {
		return fmt.Errorf("container: %d patterns of width 0: %w", patterns, robust.ErrCorrupt)
	}
	// The block count and |T_D| are fully determined by the geometry:
	// per-pattern padding for sets (width > 0, possibly zero patterns),
	// one padded run for bare cubes.
	var wantBlocks, wantOrig int64
	if width > 0 {
		blocksPer := (int64(width) + int64(k) - 1) / int64(k)
		wantBlocks = blocksPer * int64(patterns)
		wantOrig = int64(patterns) * int64(width)
	} else {
		wantBlocks = (int64(origBits) + int64(k) - 1) / int64(k)
		wantOrig = int64(origBits)
	}
	if int64(blocks) != wantBlocks || int64(origBits) != wantOrig {
		return fmt.Errorf("container: %d blocks / %d bits disagree with geometry %dx%d at K=%d: %w",
			blocks, origBits, patterns, width, k, robust.ErrCorrupt)
	}
	// 9C never expands a block beyond its longest codeword plus K data
	// bits, and every block ships at least a one-bit codeword.
	if int64(streamBits) > int64(blocks)*int64(8+k) || streamBits < blocks {
		return fmt.Errorf("container: stream size %d inconsistent with %d blocks of K=%d: %w",
			streamBits, blocks, k, robust.ErrCorrupt)
	}
	if patterns > lim.MaxPatterns {
		return fmt.Errorf("container: %d patterns exceed limit %d: %w", patterns, lim.MaxPatterns, robust.ErrLimitExceeded)
	}
	if width > lim.MaxWidth {
		return fmt.Errorf("container: width %d exceeds limit %d: %w", width, lim.MaxWidth, robust.ErrLimitExceeded)
	}
	if payload := 2 * ((int64(streamBits) + 7) / 8); payload > int64(lim.MaxPayloadBytes) {
		return fmt.Errorf("container: payload %d bytes exceeds limit %d: %w", payload, lim.MaxPayloadBytes, robust.ErrLimitExceeded)
	}
	return nil
}

// planes splits a ternary stream into (value bits, X mask) byte planes,
// bit i at byte i/8 bit i%8. Byte i of a plane is byte i%8 of the
// little-endian plane word i/8, so each 64 trits move as one word: the
// value plane is the cube's val word and the X mask its inverted care
// word, clipped at the stream end so pad bits stay zero.
func planes(c *bitvec.Cube) (val, mask []byte) {
	n := c.Len()
	nb := (n + 7) / 8
	buf := make([]byte, 2*nb)
	val, mask = buf[:nb:nb], buf[nb:]
	care, vw := c.RawWords()
	for i := 0; 64*i < n; i++ {
		x := ^care[i]
		if rem := n - 64*i; rem < 64 {
			x &= uint64(1)<<uint(rem) - 1
		}
		putLE64(val, 8*i, vw[i])
		putLE64(mask, 8*i, x)
	}
	return val, mask
}

// unplanes rebuilds the ternary stream from planes of exactly
// ceil(n/8) bytes each, 64 trits per little-endian word. A set mask bit
// with a set value bit is rejected as corruption at the first such bit
// — or, leniently, demoted to X and counted. Nonzero pad bits in the
// final byte are rejected the same way (counted but ignored when
// lenient).
func unplanes(val, mask []byte, n int, lenient bool) (*bitvec.Cube, int, error) {
	conflicts := 0
	words := (n + 63) / 64
	buf := make([]uint64, 2*words)
	care, vw := buf[:words:words], buf[words:]
	for i := 0; i < words; i++ {
		v, x := le64(val, 8*i), le64(mask, 8*i)
		m := ^uint64(0)
		if rem := n - 64*i; rem < 64 {
			m = uint64(1)<<uint(rem) - 1
		}
		if both := v & x & m; both != 0 {
			if !lenient {
				return nil, conflicts, fmt.Errorf("container: bit %d is both X and 1: %w",
					64*i+bits.TrailingZeros64(both), robust.ErrCorrupt)
			}
			conflicts += bits.OnesCount64(both) // they stay X
		}
		// Unused pad bits in the final byte must be zero.
		if pad := (v | x) &^ m; pad != 0 {
			if !lenient {
				return nil, conflicts, fmt.Errorf("container: nonzero padding bit %d: %w",
					64*i+bits.TrailingZeros64(pad), robust.ErrCorrupt)
			}
			conflicts += bits.OnesCount64(pad)
		}
		care[i] = ^x & m
		vw[i] = v & care[i]
	}
	return bitvec.CubeOfWords(n, care, vw), conflicts, nil
}

// le64 reads the little-endian word at byte off of p, with bytes past
// the end of p reading as zero.
func le64(p []byte, off int) uint64 {
	if off+8 <= len(p) {
		return binary.LittleEndian.Uint64(p[off:])
	}
	var w uint64
	for j := off; j < len(p); j++ {
		w |= uint64(p[j]) << uint(8*(j-off))
	}
	return w
}

// putLE64 writes w little-endian at byte off of p, dropping the bytes
// that would land past the end of p.
func putLE64(p []byte, off int, w uint64) {
	if off+8 <= len(p) {
		binary.LittleEndian.PutUint64(p[off:], w)
		return
	}
	for j := off; j < len(p); j, w = j+1, w>>8 {
		p[j] = byte(w)
	}
}

// countingWriter tracks bytes written for the telemetry counters.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingReader tracks bytes read for the telemetry counters.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// observeIO publishes one container I/O operation and ends its span.
func observeIO(sp *obs.Span, opCounter, byteCounter string, bytes int64, err error) {
	reg := obs.Active()
	if reg == nil {
		sp.End()
		return
	}
	reg.Counter(opCounter).Inc()
	reg.Counter(byteCounter).Add(bytes)
	sp.Set("bytes", bytes)
	if err != nil {
		reg.Counter("container.errors").Inc()
		sp.Set("error", err.Error())
	}
	sp.End()
}

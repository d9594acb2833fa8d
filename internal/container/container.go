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
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

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
	if magic == Magic4 {
		_, err := frameV4(w, r)
		return err
	}
	if err := checkName(r.Name); err != nil {
		return err
	}
	if magic != Magic {
		return fmt.Errorf("container: unknown version %q", magic)
	}
	sp := obs.Active().Span("container.write")
	cw := &countingWriter{w: w}
	defer func() { observeIO(sp, "container.writes", "container.bytes_written", cw.n, err) }()

	hdr := appendHeader(nil, magic, r.K, r.Patterns, r.Width, r.OrigBits, r.Blocks, r.Stream.Len(), r.Assign, r.Name)
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

// headerSize is the byte length of the header appendHeader writes for
// a set name: magic, six fields, the codeword table, the name (clipped
// to maxNameLen) and the CRC.
func headerSize(name string) int {
	return 4 + 24 + core.NumCases*9 + 2 + min(len(name), maxNameLen) + 4
}

// appendHeader appends the header bytes, magic through set name plus
// the header CRC32C, to dst. The same layout serves v3 and v4; a v4
// header stores zero for the four stream totals, which live in the
// trailer instead. A name longer than maxNameLen is truncated.
func appendHeader(dst []byte, magic string, k, patterns, width, origBits, blocks, streamBits int, assign core.Assignment, name string) []byte {
	if len(name) > maxNameLen {
		name = name[:maxNameLen]
	}
	start := len(dst)
	dst = append(dst, magic...)
	for _, f := range [...]int{k, patterns, width, origBits, blocks, streamBits} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f))
	}
	for cs := core.CaseAll0; cs <= core.CaseMisMis; cs++ {
		code := assign.Code(cs)
		var entry [9]byte
		entry[0] = byte(len(code))
		copy(entry[1:], code)
		dst = append(dst, entry[:]...)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
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

	h := new(headerInfo)
	var scratch []byte
	if err := readHeader(cr, diag, h, &scratch); err != nil {
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

// binCodes is the MaxCodeLen-bit binary text of every value below
// 2^MaxCodeLen, back to back: each codeword a header can hold is a
// substring of it, so readHeader builds the assignment without
// allocating a string per codeword.
var binCodes = func() string {
	b := make([]byte, 0, core.MaxCodeLen<<core.MaxCodeLen)
	for v := 0; v < 1<<core.MaxCodeLen; v++ {
		b = fmt.Appendf(b, "%0*b", core.MaxCodeLen, v)
	}
	return string(b)
}()

// readHeader parses magic through the header checksum into h, updating
// diag as it goes. Shared by the whole-payload read path and the
// chunked v4 reader. Each field is read into *scratch, which grows as
// needed and is kept, so a reader that reuses its scratch allocates
// only the set name.
func readHeader(cr io.Reader, diag *Diag, h *headerInfo, scratch *[]byte) error {
	buf := *scratch
	defer func() { *scratch = buf }()
	var crc uint32
	readFull := func(n int, what string) ([]byte, error) {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		b := buf[:n]
		if _, err := io.ReadFull(cr, b); err != nil {
			return nil, fmt.Errorf("container: %s: %w: %v", what, robust.ErrTruncated, err)
		}
		crc = crc32.Update(crc, castagnoli, b)
		return b, nil
	}

	magic, err := readFull(4, "magic")
	if err != nil {
		return err
	}
	switch string(magic) {
	case Magic:
		h.version = Magic
	case Magic4:
		h.version = Magic4
	default:
		diag.Version = string(magic)
		return fmt.Errorf("container: bad magic %q: %w", magic, robust.ErrCorrupt)
	}
	diag.Version = h.version

	hdr, err := readFull(24, "header")
	if err != nil {
		return err
	}
	h.k = int(binary.LittleEndian.Uint32(hdr[0:]))
	h.patterns = int(binary.LittleEndian.Uint32(hdr[4:]))
	h.width = int(binary.LittleEndian.Uint32(hdr[8:]))
	h.origBits = int(binary.LittleEndian.Uint32(hdr[12:]))
	h.blocks = int(binary.LittleEndian.Uint32(hdr[16:]))
	h.streamBits = int(binary.LittleEndian.Uint32(hdr[20:]))

	var codes [core.NumCases]string
	for i := range codes {
		entry, err := readFull(9, "codeword table")
		if err != nil {
			return err
		}
		n := int(entry[0])
		if n < 1 || n > core.MaxCodeLen {
			return fmt.Errorf("container: codeword %d has length %d: %w", i+1, n, robust.ErrCorrupt)
		}
		v := 0
		for _, c := range entry[1 : 1+n] {
			if c != '0' && c != '1' {
				return fmt.Errorf("container: codeword %d is not binary: %q: %w", i+1, string(entry[1:1+n]), robust.ErrCorrupt)
			}
			v = v<<1 | int(c-'0')
		}
		at := core.MaxCodeLen * (v << (core.MaxCodeLen - n))
		codes[i] = binCodes[at : at+n]
	}
	assign, err := core.AssignmentFromCodes(codes[:])
	if err != nil {
		return fmt.Errorf("container: %w: %w", robust.ErrCorrupt, err)
	}
	h.assign = assign

	nlen, err := readFull(2, "set name length")
	if err != nil {
		return err
	}
	n := int(binary.LittleEndian.Uint16(nlen))
	if n > maxNameLen {
		return fmt.Errorf("container: set name length %d exceeds %d: %w", n, maxNameLen, robust.ErrLimitExceeded)
	}
	name, err := readFull(n, "set name")
	if err != nil {
		return err
	}
	h.name = string(name)

	sum := crc
	field, err := readFull(4, "header checksum")
	if err != nil {
		return err
	}
	if stored := binary.LittleEndian.Uint32(field); stored != sum {
		// A bad header CRC is fatal even in lenient mode: the
		// geometry that partial decode depends on is untrustworthy.
		diag.HeaderCRCOK = false
		return fmt.Errorf("container: header CRC32C %08x, stored %08x: %w", sum, stored, robust.ErrChecksum)
	}
	// Checked after the CRC, so a bit flip in the name reports as a
	// checksum fault and only a faithfully stored bad name as corrupt.
	if err := checkName(h.name); err != nil {
		return fmt.Errorf("%w: %w", err, robust.ErrCorrupt)
	}
	return nil
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
	cdc, err := core.Shared(h.k, h.assign)
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
// bit i at byte i/8 bit i%8 (see putPlanes).
func planes(c *bitvec.Cube) (val, mask []byte) {
	n := c.Len()
	nb := (n + 7) / 8
	buf := make([]byte, 2*nb)
	val, mask = buf[:nb:nb], buf[nb:]
	care, vw := c.RawWords()
	putPlanes(val, mask, care, vw, n)
	return val, mask
}

// putPlanes fills the value and X-mask planes of the first n trits of
// the care/val words: ceil(n/8) bytes each. Byte i of a plane is byte
// i%8 of the little-endian plane word i/8, so each 64 trits move as one
// word: the value plane is the val word and the X mask the inverted
// care word, clipped at n so pad bits stay zero.
func putPlanes(val, mask []byte, care, vw []uint64, n int) {
	for i := 0; 64*i < n; i++ {
		m := ^uint64(0)
		if rem := n - 64*i; rem < 64 {
			m = uint64(1)<<uint(rem) - 1
		}
		putLE64(val, 8*i, vw[i]&m)
		putLE64(mask, 8*i, ^care[i]&m)
	}
}

// unplanes rebuilds the ternary stream from planes of exactly
// ceil(n/8) bytes each into a new cube; see unplanesInto.
func unplanes(val, mask []byte, n int, lenient bool) (*bitvec.Cube, int, error) {
	words := (n + 63) / 64
	buf := make([]uint64, 2*words)
	care, vw := buf[:words:words], buf[words:]
	conflicts, err := unplanesInto(care, vw, val, mask, n, lenient)
	if err != nil {
		return nil, conflicts, err
	}
	return bitvec.CubeOfWords(n, care, vw), conflicts, nil
}

// unplanesInto converts value and X-mask planes of exactly ceil(n/8)
// bytes each into the first ceil(n/64) care and val words, 64 trits
// per little-endian word, in one pass that also validates them. A set
// mask bit with a set value bit is rejected as corruption at the first
// such bit — or, leniently, demoted to X and counted. Nonzero pad bits
// in the final byte are rejected the same way (counted but ignored
// when lenient). On error the words are partly written.
func unplanesInto(care, vw []uint64, val, mask []byte, n int, lenient bool) (int, error) {
	conflicts := 0
	words := (n + 63) / 64
	care, vw = care[:words], vw[:words]
	for i := range care {
		v, x := le64(val, 8*i), le64(mask, 8*i)
		m := ^uint64(0)
		if rem := n - 64*i; rem < 64 {
			m = uint64(1)<<uint(rem) - 1
		}
		if both := v & x & m; both != 0 {
			if !lenient {
				return conflicts, fmt.Errorf("container: bit %d is both X and 1: %w",
					64*i+bits.TrailingZeros64(both), robust.ErrCorrupt)
			}
			conflicts += bits.OnesCount64(both) // they stay X
		}
		// Unused pad bits in the final byte must be zero.
		if pad := (v | x) &^ m; pad != 0 {
			if !lenient {
				return conflicts, fmt.Errorf("container: nonzero padding bit %d: %w",
					64*i+bits.TrailingZeros64(pad), robust.ErrCorrupt)
			}
			conflicts += bits.OnesCount64(pad)
		}
		care[i] = ^x & m
		vw[i] = v & care[i]
	}
	return conflicts, nil
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

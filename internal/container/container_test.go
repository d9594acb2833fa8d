package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/tcube"
)

func encodeSet(t *testing.T, k int, rows ...string) (*core.Codec, *core.Result, *tcube.Set) {
	t.Helper()
	set, err := tcube.Read("c", strings.NewReader(strings.Join(rows, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	cdc, err := core.New(k)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	return cdc, r, set
}

// write serializes r in the given version, failing the test on error.
func write(t *testing.T, r *core.Result, magic string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteVersion(&buf, r, magic); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// nameOff is the offset of the set-name length field, after the magic,
// the six geometry fields and the nine-entry codeword table.
const nameOff = 28 + 9*9

// resealHeader recomputes the header CRC32C of a v3 or v4 container
// whose set-name length is unchanged, so a header mutation reaches the
// check behind the checksum. It returns the offset of that CRC.
func resealHeader(b []byte) int {
	end := nameOff + 2 + int(binary.LittleEndian.Uint16(b[nameOff:]))
	binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[:end], castagnoli))
	return end
}

// reseal recomputes both CRC32Cs of a v3 container whose layout is
// unchanged, so a mutation reaches the structural check behind them.
func reseal(b []byte) []byte {
	hdrEnd := resealHeader(b) + 4
	n := len(b) - 4
	binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[hdrEnd:n], castagnoli))
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	cdc, r, set := encodeSet(t, 8,
		"0000000011111111",
		"01X011011XXXXX10",
		"XXXXXXXXXXXXXXXX",
	)
	for _, magic := range []string{Magic4, Magic} {
		back, err := Read(bytes.NewReader(write(t, r, magic)))
		if err != nil {
			t.Fatal(err)
		}
		if back.K != r.K || back.OrigBits != r.OrigBits || back.Blocks != r.Blocks ||
			back.Patterns != r.Patterns || back.Width != r.Width || back.LeftoverX != r.LeftoverX {
			t.Fatalf("%s header mismatch: %+v vs %+v", magic, back, r)
		}
		if !back.Stream.Equal(r.Stream) {
			t.Fatalf("%s stream mismatch", magic)
		}
		if back.Counts != r.Counts {
			t.Fatalf("%s counts %v vs %v", magic, back.Counts, r.Counts)
		}
		dec, err := cdc.DecodeSet(back.Stream, set.Width(), set.Len())
		if err != nil {
			t.Fatal(err)
		}
		if !set.Covers(dec) {
			t.Fatalf("%s decoded container contradicts source", magic)
		}
	}
}

// TestReadRejectsCorruption mutates a v3 container so each mutation
// exercises its specific structural check — mutations of fields the
// CRCs cover are resealed, or the checksum would mask the check —
// asserting every rejection lands in the robust taxonomy.
func TestReadRejectsCorruption(t *testing.T) {
	_, r, _ := encodeSet(t, 8, "0000000011111111", "01X011011XXXXX10")
	good := write(t, r, Magic)

	mutate := func(name string, want error, f func(b []byte) []byte) {
		t.Helper()
		b := append([]byte(nil), good...)
		b = f(b)
		_, err := Read(bytes.NewReader(b))
		if err == nil {
			t.Errorf("%s accepted", name)
			return
		}
		if !robust.IsClassified(err) {
			t.Errorf("%s: error outside taxonomy: %v", name, err)
		}
		if want != nil && !errors.Is(err, want) {
			t.Errorf("%s: error %v, want %v", name, err, want)
		}
	}
	mutate("bad magic", robust.ErrCorrupt, func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("legacy N9C2", robust.ErrCorrupt, func(b []byte) []byte { b[3] = '2'; return b })
	mutate("odd K", robust.ErrCorrupt, func(b []byte) []byte { b[4] = 7; return reseal(b) })
	mutate("truncated header", robust.ErrTruncated, func(b []byte) []byte { return b[:20] })
	mutate("truncated payload", robust.ErrTruncated, func(b []byte) []byte { return b[:len(b)-2] })
	mutate("trailing bytes", robust.ErrCorrupt, func(b []byte) []byte { return append(b, 0) })
	mutate("codeword length 0", robust.ErrCorrupt, func(b []byte) []byte { b[28] = 0; return b })
	mutate("codeword non-binary", robust.ErrCorrupt, func(b []byte) []byte { b[29] = 'z'; return b })
	// Corrupting a codeword table entry so two codes collide.
	mutate("duplicate codewords", robust.ErrCorrupt, func(b []byte) []byte {
		copy(b[28:37], b[37:46])
		return b
	})
	// Value+mask both set on bit 0 of the payload, which starts after
	// the header, codeword table, length-prefixed set name and header
	// CRC, and ends before the payload CRC.
	mutate("X and 1 simultaneously", robust.ErrCorrupt, func(b []byte) []byte {
		payload := nameOff + 2 + int(binary.LittleEndian.Uint16(b[nameOff:])) + 4
		nbytes := (len(b) - payload - 4) / 2
		b[payload] |= 1
		b[payload+nbytes] |= 1
		return reseal(b)
	})
	mutate("oversized name length", robust.ErrLimitExceeded, func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[nameOff:], 60000)
		return b
	})
	// Forged pattern count disagreeing with origBits/blocks: must be
	// rejected by cross-field validation before any allocation.
	mutate("forged pattern count", robust.ErrCorrupt, func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], 1<<30)
		return reseal(b)
	})
}

// TestSetNameRoundTrip asserts both container versions preserve the
// source set name, so a decompressed set no longer inherits its
// container path; and that a name with a control byte, which would
// break the 01X text a decode emits, is refused on write and rejected
// as corrupt on read.
func TestSetNameRoundTrip(t *testing.T) {
	_, r, set := encodeSet(t, 8, "0000000011111111")
	if r.Name != set.Name {
		t.Fatalf("encode result name %q, want %q", r.Name, set.Name)
	}
	for _, magic := range []string{Magic4, Magic} {
		for _, name := range []string{set.Name, "", "a b~", "s\u00e9t", strings.Repeat("n", maxNameLen)} {
			r2 := *r
			r2.Name = name
			back, err := Read(bytes.NewReader(write(t, &r2, magic)))
			if err != nil {
				t.Fatalf("%s %q: %v", magic, name, err)
			}
			if back.Name != name {
				t.Fatalf("%s container round-trip name %q, want %q", magic, back.Name, name)
			}
		}
		for _, name := range []string{"a\n0101", "\x00", "tab\t", "\x1f", "del\x7f"} {
			r2 := *r
			r2.Name = name
			var buf bytes.Buffer
			if err := WriteVersion(&buf, &r2, magic); err == nil {
				t.Errorf("%s: name %q written", magic, name)
			}
			// The same name forged into a container with a valid header
			// CRC is corrupt on both read paths.
			r2.Name = strings.Repeat("a", len(name))
			b := write(t, &r2, magic)
			copy(b[nameOff+2:], name)
			resealHeader(b)
			if _, err := Read(bytes.NewReader(b)); !errors.Is(err, robust.ErrCorrupt) {
				t.Errorf("%s: forged name %q read: %v, want ErrCorrupt", magic, name, err)
			}
			if magic == Magic4 {
				if _, err := NewChunkReader(bytes.NewReader(b), robust.DecodeLimits{}); !errors.Is(err, robust.ErrCorrupt) {
					t.Errorf("forged name %q into chunk reader: %v, want ErrCorrupt", name, err)
				}
			}
		}
	}
}

// TestReadLegacyVersions asserts a v3 container, which earlier ninec
// runs wrote, reads back to the same Result as the v4 container of the
// same set, and that the retired N9C1 and N9C2 formats are rejected as
// corrupt.
func TestReadLegacyVersions(t *testing.T) {
	_, r, _ := encodeSet(t, 8, "0000000011111111", "01X011011XXXXX10")
	v4, err := Read(bytes.NewReader(write(t, r, Magic4)))
	if err != nil {
		t.Fatal(err)
	}
	v3 := write(t, r, Magic)
	back, diag, err := ReadWithOptions(bytes.NewReader(v3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diag.Version != Magic || !diag.HeaderCRCOK || !diag.PayloadCRCOK {
		t.Fatalf("v3 diag %+v", diag)
	}
	if back.Name != v4.Name || back.K != v4.K || back.Patterns != v4.Patterns || back.Width != v4.Width ||
		back.OrigBits != v4.OrigBits || back.Blocks != v4.Blocks || back.Counts != v4.Counts ||
		back.Assign != v4.Assign || !back.Stream.Equal(v4.Stream) {
		t.Fatalf("v3 read %+v, v4 read %+v", back, v4)
	}
	for _, magic := range []string{"N9C1", "N9C2"} {
		b := append([]byte(magic), v3[4:]...)
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, robust.ErrCorrupt) || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("%s: got %v, want bad magic / ErrCorrupt", magic, err)
		}
	}
}

// TestHostileHeader16Bytes is the regression test for the header-trust
// bug: a 16-byte input that carries a valid magic and forged huge size
// fields used to reach make([]byte, n) before anything noticed the
// stream was 16 bytes long. Both readable versions must fail with
// ErrTruncated (the bytes run out before the header completes) and
// must never allocate payload-sized buffers; the retired N9C1/N9C2
// magics and garbage fail as ErrCorrupt at the magic.
func TestHostileHeader16Bytes(t *testing.T) {
	for _, magic := range []string{Magic, Magic4, "N9C2", "N9C1", "XXXX"} {
		b := make([]byte, 16)
		copy(b, magic)
		b[4] = 8 // plausible K
		// Forge enormous patterns/width in the bytes that fit.
		binary.LittleEndian.PutUint32(b[8:], 0xFFFFFFFF)
		binary.LittleEndian.PutUint32(b[12:], 0xFFFFFFFF)
		_, err := Read(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("%q: 16-byte hostile header accepted", magic)
		}
		want := robust.ErrTruncated
		if magic != Magic && magic != Magic4 {
			want = robust.ErrCorrupt
		}
		if !errors.Is(err, want) {
			t.Errorf("%q: got %v, want %v", magic, err, want)
		}
	}
}

// TestV3DetectsEveryBitFlip flips every bit of a small v3 container and
// asserts each mutant is rejected with a classified error — the CRC32C
// pair guarantees any single-bit corruption is caught.
func TestV3DetectsEveryBitFlip(t *testing.T) {
	_, r, _ := encodeSet(t, 8, "0000000011111111", "01X011011XXXXX10")
	good := write(t, r, Magic)
	for i := 0; i < len(good)*8; i++ {
		b := append([]byte(nil), good...)
		b[i/8] ^= 1 << (i % 8)
		_, err := Read(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
		if !robust.IsClassified(err) {
			t.Fatalf("bit flip at %d: error outside taxonomy: %v", i, err)
		}
	}
}

// TestDecodeLimits asserts forged-but-consistent geometry that exceeds
// the caller's limits is rejected with ErrLimitExceeded before payload
// allocation (the container body is absent, so reaching the payload
// read would surface ErrTruncated instead).
func TestDecodeLimits(t *testing.T) {
	_, r, _ := encodeSet(t, 8, "0000000011111111", "01X011011XXXXX10")
	good := write(t, r, Magic)
	payloadOff := nameOff + 2 + int(binary.LittleEndian.Uint16(good[nameOff:])) + 4
	headerOnly := good[:payloadOff]

	cases := []struct {
		name string
		lim  robust.DecodeLimits
	}{
		{"patterns", robust.DecodeLimits{MaxPatterns: 1}},
		{"width", robust.DecodeLimits{MaxWidth: 4}},
		{"payload", robust.DecodeLimits{MaxPayloadBytes: 1}},
	}
	for _, tc := range cases {
		_, err := ReadWithLimits(bytes.NewReader(headerOnly), tc.lim)
		if !errors.Is(err, robust.ErrLimitExceeded) {
			t.Errorf("%s: got %v, want ErrLimitExceeded", tc.name, err)
		}
	}
	// Within limits the same truncated input must fail as truncated,
	// proving the limit rejections above fired before the payload read.
	if _, err := ReadWithLimits(bytes.NewReader(headerOnly), robust.DecodeLimits{}); !errors.Is(err, robust.ErrTruncated) {
		t.Errorf("headerOnly under default limits: got %v, want ErrTruncated", err)
	}
	// A healthy container under generous limits still loads.
	if _, err := ReadWithLimits(bytes.NewReader(good), robust.DecodeLimits{MaxPatterns: 100}); err != nil {
		t.Errorf("healthy container rejected: %v", err)
	}
}

// TestLenientRead corrupts the payload of a v3 container and asserts
// strict mode rejects it with ErrChecksum while lenient mode loads it,
// records the CRC failure in Diag, and leaves a salvageable stream.
func TestLenientRead(t *testing.T) {
	_, r, _ := encodeSet(t, 8, "0000000011111111", "01X011011XXXXX10")
	good := write(t, r, Magic)
	// Flip a val-plane bit whose mask-plane partner is clear (a care
	// bit), so the mutant stays a well-formed ternary stream and only
	// the payload CRC notices. Search from the payload start.
	headerEnd := nameOff + 2 + int(binary.LittleEndian.Uint16(good[nameOff:])) + 4
	nbytes := (len(good) - headerEnd - 4) / 2
	flip := -1
	for i := 0; i < nbytes*8; i++ {
		if good[headerEnd+nbytes+i/8]&(1<<(i%8)) == 0 { // mask bit clear
			flip = i
			break
		}
	}
	if flip < 0 {
		t.Fatal("no care bit found in payload")
	}
	bad := append([]byte(nil), good...)
	bad[headerEnd+flip/8] ^= 1 << (flip % 8)

	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, robust.ErrChecksum) {
		t.Fatalf("strict read of corrupt payload: got %v, want ErrChecksum", err)
	}
	back, diag, err := ReadWithOptions(bytes.NewReader(bad), Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient read failed: %v", err)
	}
	if !diag.HeaderCRCOK || diag.PayloadCRCOK {
		t.Fatalf("diag %+v: want header CRC ok, payload CRC bad", diag)
	}
	if back.Stream.Len() != r.Stream.Len() {
		t.Fatalf("lenient stream length %d, want %d", back.Stream.Len(), r.Stream.Len())
	}
	// Header corruption stays fatal even in lenient mode.
	bad2 := append([]byte(nil), good...)
	bad2[6] ^= 1
	if _, _, err := ReadWithOptions(bytes.NewReader(bad2), Options{Lenient: true}); !errors.Is(err, robust.ErrChecksum) {
		t.Fatalf("lenient read of corrupt header: got %v, want ErrChecksum", err)
	}
}

func TestReadRejectsUndecodableStream(t *testing.T) {
	_, r, _ := encodeSet(t, 8, "0000000011111111")
	// Claim one more block than the stream holds.
	r2 := *r
	r2.Blocks++
	r2.OrigBits += 8
	if _, err := Read(bytes.NewReader(write(t, &r2, Magic))); err == nil {
		t.Fatal("short stream accepted")
	}
}

func TestPropertyContainerRoundTrip(t *testing.T) {
	f := func(seed int64, kRaw, nRaw, wRaw uint8) bool {
		k := (int(kRaw%8) + 1) * 2
		n := int(nRaw % 12)
		w := int(wRaw%24) + 1
		rng := rand.New(rand.NewSource(seed))
		set := tcube.NewSet("p", w)
		for i := 0; i < n; i++ {
			c := bitvec.NewCube(w)
			for j := 0; j < w; j++ {
				c.Set(j, bitvec.Trit(rng.Intn(3)))
			}
			set.MustAppend(c)
		}
		cdc, err := core.New(k)
		if err != nil {
			return false
		}
		r, err := cdc.EncodeSet(set)
		if err != nil {
			return false
		}
		for _, magic := range []string{Magic4, Magic} {
			var buf bytes.Buffer
			if err := WriteVersion(&buf, r, magic); err != nil {
				return false
			}
			back, err := Read(&buf)
			if err != nil {
				return false
			}
			if !back.Stream.Equal(r.Stream) || back.Counts != r.Counts ||
				back.K != r.K || back.OrigBits != r.OrigBits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

package inject_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/codecs"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// mutationsPerDecoder is the per-decoder campaign size the acceptance
// bar requires: 1000 seeded mutations, zero panics, every failure
// mapped to the robust taxonomy.
const mutationsPerDecoder = 1000

func randomSet(name string, patterns, width int, seed int64) *tcube.Set {
	rng := rand.New(rand.NewSource(seed))
	s := tcube.NewSet(name, width)
	for i := 0; i < patterns; i++ {
		c := bitvec.NewCube(width)
		for j := 0; j < width; j++ {
			c.Set(j, bitvec.Trit(rng.Intn(3)))
		}
		s.MustAppend(c)
	}
	return s
}

func report(t *testing.T, what string, fails []inject.Failure) {
	t.Helper()
	for i, f := range fails {
		if i == 10 {
			t.Errorf("%s: ... %d more", what, len(fails)-10)
			break
		}
		t.Errorf("%s: %s", what, f)
	}
}

// TestDifferentialContainer runs the mutation campaign against both
// readable container versions: body-wide mutations plus header-focused fuzzing,
// decoded under tight limits. The decoder must fail closed on every
// mutant — structured taxonomy error or clean success, never a panic,
// never an unclassified error, and never an allocation beyond the
// limits (enforced by the limit guard the campaign decodes under).
func TestDifferentialContainer(t *testing.T) {
	set := randomSet("diff", 12, 40, 11)
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	lim := robust.DecodeLimits{MaxPatterns: 1 << 12, MaxWidth: 1 << 12, MaxPayloadBytes: 1 << 16}
	for _, magic := range []string{container.Magic4, container.Magic} {
		var buf bytes.Buffer
		if err := container.WriteVersion(&buf, r, magic); err != nil {
			t.Fatal(err)
		}
		decode := func(b []byte) error {
			_, err := container.ReadWithLimits(bytes.NewReader(b), lim)
			return err
		}
		body := inject.ByteCampaign(buf.Bytes(), mutationsPerDecoder*7/10, 1000, decode)
		report(t, magic+" body", body)
		hdr := inject.HeaderCampaign(buf.Bytes(), 28, mutationsPerDecoder*3/10, 2000, decode)
		report(t, magic+" header", hdr)

		// Lenient mode must fail just as closed.
		lenient := inject.ByteCampaign(buf.Bytes(), mutationsPerDecoder/10, 3000, func(b []byte) error {
			_, _, err := container.ReadWithOptions(bytes.NewReader(b), container.Options{Limits: lim, Lenient: true})
			return err
		})
		report(t, magic+" lenient", lenient)
	}
}

// TestDifferentialCoreStream mutates the raw ternary T_E stream and
// drives it through the strict and partial 9C decoders.
func TestDifferentialCoreStream(t *testing.T) {
	set := randomSet("core", 10, 48, 13)
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	strict := inject.CubeCampaign(r.Stream, mutationsPerDecoder, 5000, func(c *bitvec.Cube) error {
		s, err := cdc.DecodeSet(c, set.Width(), set.Len())
		if err == nil && s.Len() != set.Len() {
			return fmt.Errorf("decoded %d patterns, want %d", s.Len(), set.Len())
		}
		return err
	})
	report(t, "DecodeSet", strict)
	partial := inject.CubeCampaign(r.Stream, mutationsPerDecoder, 6000, func(c *bitvec.Cube) error {
		s, err := cdc.DecodeSetPartial(c, set.Width(), set.Len())
		if s == nil {
			return fmt.Errorf("partial decode returned nil set")
		}
		return err
	})
	report(t, "DecodeSetPartial", partial)

	flat := randomSet("flat", 1, 96, 17).Cube(0)
	rc, err := cdc.EncodeCube(flat)
	if err != nil {
		t.Fatal(err)
	}
	cube := inject.CubeCampaign(rc.Stream, mutationsPerDecoder, 7000, func(c *bitvec.Cube) error {
		_, err := cdc.DecodeCube(c, rc.OrigBits)
		return err
	})
	report(t, "DecodeCube", cube)
}

// TestDifferentialStreamDecoder mutates the raw T_E stream and drives
// it through the block-at-a-time StreamDecoder: every mutant must end
// in a clean EOF or a taxonomy error, never a panic, and never more
// patterns than the limit admits.
func TestDifferentialStreamDecoder(t *testing.T) {
	set := randomSet("stream", 10, 48, 23)
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	lim := robust.DecodeLimits{MaxPatterns: 1 << 10, MaxWidth: 1 << 12}
	fails := inject.CubeCampaign(r.Stream, mutationsPerDecoder, 8000, func(c *bitvec.Cube) error {
		dec, err := cdc.NewStreamDecoder(core.NewCubeSource(c), set.Width(), lim)
		if err != nil {
			return err
		}
		for {
			_, err := dec.ReadPattern()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if dec.Patterns() > 1<<10 {
				return fmt.Errorf("stream decoder ran past the pattern limit")
			}
		}
	})
	report(t, "StreamDecoder", fails)
}

// TestDifferentialChunkReader mutates a chunked v4 container and pulls
// it through the incremental ChunkReader + StreamDecoder pipeline (the
// path ninecd serves), not just the whole-container read.
func TestDifferentialChunkReader(t *testing.T) {
	set := randomSet("chunk", 14, 40, 29)
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := container.WriteVersion(&buf, r, container.Magic4); err != nil {
		t.Fatal(err)
	}
	lim := robust.DecodeLimits{MaxPatterns: 1 << 10, MaxWidth: 1 << 12, MaxPayloadBytes: 1 << 16}
	decode := func(b []byte) error {
		cr, err := container.NewChunkReader(bytes.NewReader(b), lim)
		if err != nil {
			return err
		}
		c, err := core.NewWithAssignment(cr.Header().K, cr.Header().Assign)
		if err != nil {
			return err
		}
		dec, err := c.NewStreamDecoder(cr, cr.Header().Width, lim)
		if err != nil {
			return err
		}
		for {
			_, err := dec.ReadPattern()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
	body := inject.ByteCampaign(buf.Bytes(), mutationsPerDecoder*7/10, 10000, decode)
	report(t, "chunked body", body)
	hdr := inject.HeaderCampaign(buf.Bytes(), 28, mutationsPerDecoder*3/10, 11000, decode)
	report(t, "chunked header", hdr)
}

// TestDifferentialCodecs mutates each baseline codec's compressed
// stream and asserts its decoder fails closed: taxonomy error, or a
// successful decode of exactly origBits (some mutants are other valid
// streams — that is fine, silent truncation or overrun is not).
func TestDifferentialCodecs(t *testing.T) {
	set := randomSet("base", 12, 48, 19)
	all := []codecs.Codec{
		codecs.Golomb{M: 4}, codecs.FDR{}, codecs.EFDR{}, codecs.ARL{}, codecs.MTC{M: 4},
		&codecs.VIHC{Mh: 8}, &codecs.SelectiveHuffman{B: 8, N: 8},
		&codecs.FullHuffman{B: 8}, &codecs.Dictionary{B: 8, D: 8}, &codecs.LZW{B: 8, MaxDict: 1024},
	}
	for _, c := range all {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			data, err := codecs.BitsFromSet(c.Fill(set))
			if err != nil {
				t.Fatal(err)
			}
			stream, err := c.Compress(data)
			if err != nil {
				t.Fatal(err)
			}
			fails := inject.BitsCampaign(stream, mutationsPerDecoder, 9000, func(b *bitvec.Bits) error {
				out, err := c.Decompress(b, data.Len())
				if err == nil && out.Len() != data.Len() {
					return fmt.Errorf("decoded %d bits, want %d", out.Len(), data.Len())
				}
				return err
			})
			report(t, c.Name(), fails)
		})
	}
}

package container

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/synth"
)

// mintestV4 encodes the s38417 Mintest-profile set at block size k —
// 99 patterns of 1664 trits, several chunks of stream — and frames it
// as v4.
func mintestV4(b *testing.B, k int) (*core.Result, []byte) {
	b.Helper()
	set, err := synth.MintestLike("s38417")
	if err != nil {
		b.Fatal(err)
	}
	cdc, err := core.New(k)
	if err != nil {
		b.Fatal(err)
	}
	res, err := cdc.EncodeSet(set)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVersion(&buf, res, Magic4); err != nil {
		b.Fatal(err)
	}
	return res, buf.Bytes()
}

// BenchmarkWriteV4 measures v4 framing of an encoded set: plane split,
// CRC32C and chunk frames.
func BenchmarkWriteV4(b *testing.B) {
	res, data := mintestV4(b, 8)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteVersion(io.Discard, res, Magic4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChunkRead measures reading a v4 container chunk by chunk:
// CRC32C verification and plane join, no decoding.
func BenchmarkChunkRead(b *testing.B) {
	_, data := mintestV4(b, 8)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chr, err := NewChunkReader(bytes.NewReader(data), robust.DecodeLimits{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := chr.ReadStream(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamDecodeK8 measures the streamed plane decode: ChunkReader
// feeding a StreamDecoder whose ReadPattern returns every pattern as a
// cube, the path DecodeSet takes.
func BenchmarkStreamDecodeK8(b *testing.B) {
	res, data := mintestV4(b, 8)
	cdc, err := core.New(8)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chr, err := NewChunkReader(bytes.NewReader(data), robust.DecodeLimits{})
		if err != nil {
			b.Fatal(err)
		}
		dec, err := cdc.NewStreamDecoder(chr, res.Width, robust.DecodeLimits{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := dec.ReadPattern(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		if dec.Patterns() != res.Patterns {
			b.Fatalf("decoded %d patterns, want %d", dec.Patterns(), res.Patterns)
		}
	}
}

// BenchmarkStreamDecodeText measures the /decode loop below HTTP:
// ChunkReader feeding a StreamDecoder whose AppendText writes every
// pattern's 01X row into one reused buffer.
func BenchmarkStreamDecodeText(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			res, data := mintestV4(b, k)
			cdc, err := core.New(k)
			if err != nil {
				b.Fatal(err)
			}
			var buf []byte
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chr, err := NewChunkReader(bytes.NewReader(data), robust.DecodeLimits{})
				if err != nil {
					b.Fatal(err)
				}
				dec, err := cdc.NewStreamDecoder(chr, res.Width, robust.DecodeLimits{})
				if err != nil {
					b.Fatal(err)
				}
				for {
					if buf, err = dec.AppendText(buf[:0]); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				if dec.Patterns() != res.Patterns {
					b.Fatalf("decoded %d patterns, want %d", dec.Patterns(), res.Patterns)
				}
			}
		})
	}
}

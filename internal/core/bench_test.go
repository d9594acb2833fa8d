package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/synth"
	"repro/internal/tcube"
)

func benchCube(n int) *bitvec.Cube {
	rng := rand.New(rand.NewSource(1))
	c := bitvec.NewCube(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.75 {
			continue
		}
		c.Set(i, bitvec.Trit(rng.Intn(2)))
	}
	return c
}

func BenchmarkEncodeCube(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(benchName("K", k), func(b *testing.B) {
			flat := benchCube(1 << 16)
			cdc, err := New(k)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(flat.Len() / 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cdc.EncodeCube(flat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeCubeReference measures the retained trit-level
// reference encoder; the ratio to BenchmarkEncodeCube is the
// word-parallel speedup.
func BenchmarkEncodeCubeReference(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(benchName("K", k), func(b *testing.B) {
			flat := benchCube(1 << 16)
			cdc, err := New(k)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(flat.Len() / 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cdc.EncodeCubeReference(flat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchSet(patterns, width int) *tcube.Set {
	rng := rand.New(rand.NewSource(2))
	s := tcube.NewSet("bench", width)
	for i := 0; i < patterns; i++ {
		c := bitvec.NewCube(width)
		for j := 0; j < width; j++ {
			if rng.Float64() < 0.75 {
				continue
			}
			c.Set(j, bitvec.Trit(rng.Intn(2)))
		}
		s.MustAppend(c)
	}
	return s
}

// BenchmarkEncodeSet is the canonical serial-path benchmark (K=16,
// 256x2048 set) — the number tracked across releases by the
// BENCH_<stamp>.json snapshots and guarded against telemetry overhead
// by TestDisabledTelemetryOverhead.
func BenchmarkEncodeSet(b *testing.B) {
	set := benchSet(256, 2048)
	cdc, err := New(16)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(set.Bits() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdc.EncodeSet(set); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEncodeSetK times the serial set encoder at one block size on
// the canonical 256x2048 set; the flat BenchmarkEncodeSetK<k> names
// keep each kernel individually visible to the bench-gate.
func benchEncodeSetK(b *testing.B, k int) {
	set := benchSet(256, 2048)
	cdc, err := New(k)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(set.Bits() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdc.EncodeSet(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSetK4(b *testing.B)  { benchEncodeSetK(b, 4) }
func BenchmarkEncodeSetK8(b *testing.B)  { benchEncodeSetK(b, 8) }
func BenchmarkEncodeSetK16(b *testing.B) { benchEncodeSetK(b, 16) }
func BenchmarkEncodeSetK32(b *testing.B) { benchEncodeSetK(b, 32) }

// benchDecodeSetK times the set decoder at one block size on the
// stream produced from the canonical set.
func benchDecodeSetK(b *testing.B, k int) {
	set := benchSet(256, 2048)
	cdc, err := New(k)
	if err != nil {
		b.Fatal(err)
	}
	r, err := cdc.EncodeSet(set)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(set.Bits() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdc.DecodeSet(r.Stream, set.Width(), set.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSetK4(b *testing.B)  { benchDecodeSetK(b, 4) }
func BenchmarkDecodeSetK8(b *testing.B)  { benchDecodeSetK(b, 8) }
func BenchmarkDecodeSetK16(b *testing.B) { benchDecodeSetK(b, 16) }
func BenchmarkDecodeSetK32(b *testing.B) { benchDecodeSetK(b, 32) }

// BenchmarkEncodeSetWS times the zero-allocation workspace encode —
// the ninecd request path — and reports allocs/op so the snapshot
// records the steady state staying at zero.
func BenchmarkEncodeSetWS(b *testing.B) {
	set := benchSet(256, 2048)
	cdc, err := New(16)
	if err != nil {
		b.Fatal(err)
	}
	ws := GetWorkspace()
	defer ws.Release()
	if _, err := cdc.EncodeSetWS(ws, set); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(set.Bits() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdc.EncodeSetWS(ws, set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeSetParallel measures worker-pool scaling of Encode
// against the serial baseline (workers=1 is the serial loop).
func BenchmarkEncodeSetParallel(b *testing.B) {
	set := benchSet(256, 2048)
	cdc, err := New(16)
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		workerCounts = append(workerCounts, p)
	}
	for _, w := range workerCounts {
		b.Run(benchName("workers", w), func(b *testing.B) {
			b.SetBytes(int64(set.Bits() / 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cdc.Encode(context.Background(), set, EncodeOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeCube(b *testing.B) {
	flat := benchCube(1 << 16)
	cdc, err := New(8)
	if err != nil {
		b.Fatal(err)
	}
	r, err := cdc.EncodeCube(flat)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(flat.Len() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdc.DecodeCube(r.Stream, flat.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewCodec measures building a K=8 codec, which /encode?fd=,
// ?k=, profiled encodes and /decode of a non-default container do per
// request: the default code, and the frequency-directed code of a
// Mintest profile.
func BenchmarkNewCodec(b *testing.B) {
	set, err := synth.MintestLike("s38417")
	if err != nil {
		b.Fatal(err)
	}
	cdc, err := New(8)
	if err != nil {
		b.Fatal(err)
	}
	res, err := cdc.EncodeSet(set)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range []struct {
		name   string
		assign Assignment
	}{{"default", DefaultAssignment()}, {"fd", FrequencyDirected(res.Counts)}} {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewWithAssignment(8, a.assign); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClassify(b *testing.B) {
	flat := benchCube(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off+8 <= flat.Len(); off += 8 {
			Classify(flat, off, 8)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

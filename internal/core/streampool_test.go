package core_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// nChunkContainer frames a random K=8 set whose stream spans exactly n
// DefaultChunkTrits chunks as a v4 container.
func nChunkContainer(t testing.TB, n int) []byte {
	t.Helper()
	const width = 1000
	rng := rand.New(rand.NewSource(int64(n)))
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	set := tcube.NewSet("chunks", width)
	for set.Len() == 0 || set.Len()*width < (2*n-1)*container.DefaultChunkTrits {
		c := bitvec.NewCube(width)
		for j := 0; j < width; j++ {
			if rng.Intn(2) == 0 {
				c.Set(j, bitvec.Trit(rng.Intn(2)))
			}
		}
		set.MustAppend(c)
	}
	for {
		res, err := cdc.EncodeSet(set)
		if err != nil {
			t.Fatal(err)
		}
		if chunks := (res.Stream.Len() + container.DefaultChunkTrits - 1) / container.DefaultChunkTrits; chunks <= n {
			if chunks != n {
				t.Fatalf("%d patterns: %d chunks, want %d", set.Len(), chunks, n)
			}
			data, err := container.MarshalV4(res)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		trimmed := tcube.NewSet(set.Name, width)
		for i := 0; i < set.Len()-1; i++ {
			trimmed.MustAppend(set.Cube(i))
		}
		set = trimmed
	}
}

// TestChunkDecodeAllocsPerChunk pins the /decode loop below HTTP: a
// warm pooled ChunkReader and StreamDecoder decode a container to text
// with a fixed number of allocations (the body reader and the set
// name), so nothing is allocated per chunk or per seam.
func TestChunkDecodeAllocsPerChunk(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	allocs := map[int]float64{}
	for _, n := range []int{1, 4, 16} {
		data := nChunkContainer(t, n)
		allocs[n] = testing.AllocsPerRun(20, func() {
			chr, err := container.NewChunkReader(bytes.NewReader(data), robust.DecodeLimits{})
			if err != nil {
				t.Fatal(err)
			}
			defer chr.Release()
			dec, err := cdc.NewStreamDecoder(chr, chr.Header().Width, robust.DecodeLimits{})
			if err != nil {
				t.Fatal(err)
			}
			defer dec.Release()
			for {
				if buf, err = dec.AppendText(buf[:0]); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	t.Logf("allocations per decode of 1, 4 and 16 chunks: %v", allocs)
	if allocs[1] != allocs[4] || allocs[4] != allocs[16] || allocs[16] > 2 {
		t.Fatalf("allocations per decode of 1, 4 and 16 chunks: %v, want one count of at most 2", allocs)
	}
}

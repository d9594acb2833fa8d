package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/tcube"
)

// chunksOf is the number of DefaultChunkTrits chunks a v4 container of
// r's stream holds.
func chunksOf(r *core.Result) int {
	return (r.Stream.Len() + container.DefaultChunkTrits - 1) / container.DefaultChunkTrits
}

// containerOfChunks returns a K=8 v4 container of random 01X patterns
// whose stream spans exactly n chunks: the shortest prefix of a sample
// set that reaches n.
func containerOfChunks(t testing.TB, n int) []byte {
	t.Helper()
	set, err := tcube.Read("chunks", strings.NewReader(sampleText(64*n, 512, int64(n))))
	if err != nil {
		t.Fatal(err)
	}
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(p int) *core.Result {
		prefix := tcube.NewSet(set.Name, set.Width())
		for i := 0; i < p; i++ {
			prefix.MustAppend(set.Cube(i))
		}
		r, err := cdc.EncodeSet(prefix)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	lo, hi := 1, set.Len()
	if chunksOf(encode(hi)) < n {
		t.Fatalf("%d patterns span fewer than %d chunks", hi, n)
	}
	for lo < hi {
		if mid := (lo + hi) / 2; chunksOf(encode(mid)) < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r := encode(lo)
	if chunksOf(r) != n {
		t.Fatalf("%d patterns span %d chunks, want %d", lo, chunksOf(r), n)
	}
	data, err := container.MarshalV4(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeAllocsIndependentOfChunks pins what one /decode costs in
// allocations through the whole handler stack (routing, admission,
// telemetry, chunk reads, decode, text): the same count for containers
// of 1, 4 and 16 chunks, and under half of the 115 a 2-chunk request
// made while each chunk had its own buffers and seams spliced whole
// chunks. Nothing is allocated per chunk.
func TestDecodeAllocsIndependentOfChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := newServer(config{CacheOff: true, ShedQueue: 1 << 10}, obs.NewRegistry())
	allocs := map[int]float64{}
	for _, n := range []int{1, 4, 16} {
		body := containerOfChunks(t, n)
		if code := serveOnce(s, "/decode", body); code != http.StatusOK {
			t.Fatalf("%d chunks: status %d", n, code)
		}
		allocs[n] = testing.AllocsPerRun(50, func() { serveOnce(s, "/decode", body) })
	}
	t.Logf("allocations per /decode of 1, 4 and 16 chunks: %v", allocs)
	if allocs[1] != allocs[4] || allocs[4] != allocs[16] || allocs[1] >= 115.0/2 {
		t.Fatalf("allocations per /decode of 1, 4 and 16 chunks: %v, want one count below %.1f", allocs, 115.0/2)
	}
}

// TestServeDecodeMintestAllocs pins the allocations of one request of
// BenchmarkServeDecode/mintest at 44. Admission takes a free worker slot
// without arming a queue-wait timer or building a release closure; the
// request made 47 allocations while it did both. A container at K=16,
// a kernel K other than the server's -k, decodes with the same count:
// it shares core.Shared's codec instead of building one per request.
func TestServeDecodeMintestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	var text []byte
	for _, b := range serveBodies(t) {
		if b.name == "mintest" {
			text = b.text
		}
	}
	s := newServer(config{CacheOff: true, ShedQueue: 1 << 10}, obs.NewRegistry())
	allocs := map[string]float64{}
	for _, target := range []string{"/encode", "/encode?k=16"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(text)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", target, w.Code)
		}
		body := w.Body.Bytes()
		if code := serveOnce(s, "/decode", body); code != http.StatusOK {
			t.Fatalf("decode of %s: status %d", target, code)
		}
		allocs[target] = testing.AllocsPerRun(100, func() { serveOnce(s, "/decode", body) })
	}
	if a := allocs["/encode"]; a > 44 {
		t.Fatalf("%.1f allocations per /decode, want at most 44", a)
	}
	if a, b := allocs["/encode?k=16"], allocs["/encode"]; a != b {
		t.Fatalf("%.1f allocations per K=16 /decode, want %.1f as at the -k default K=8", a, b)
	}
}

// TestDecodeOutputMatchesDecodeSet holds /decode's text to DecodeSet's
// rows, byte for byte, with the set name in X-Set-Name: the six
// Mintest profiles and examples/cubes.txt at every kernel K, under the
// fixed and the frequency-directed code, as v3 and v4 containers. The
// cases run in parallel against one server, so the pooled decode state
// passes between goroutines.
func TestDecodeOutputMatchesDecodeSet(t *testing.T) {
	var sets []*tcube.Set
	for _, cs := range synth.Benchmarks {
		set, err := synth.MintestLike(cs.Name)
		if err != nil {
			t.Fatal(err)
		}
		set.Name = cs.Name
		sets = append(sets, set)
	}
	f, err := os.Open("../../examples/cubes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cubes, err := tcube.Read("cubes", f)
	if err != nil {
		t.Fatal(err)
	}
	sets = append(sets, cubes)

	s := newServer(config{CacheOff: true, ShedQueue: 1 << 10}, obs.NewRegistry())
	for _, set := range sets {
		for _, k := range []int{4, 8, 16, 32} {
			for _, fd := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/K=%d/fd=%v", set.Name, k, fd), func(t *testing.T) {
					t.Parallel()
					cdc, err := core.New(k)
					if err != nil {
						t.Fatal(err)
					}
					r, err := cdc.EncodeSet(set)
					if err != nil {
						t.Fatal(err)
					}
					if fd {
						if cdc, err = core.NewWithAssignment(k, core.FrequencyDirected(r.Counts)); err != nil {
							t.Fatal(err)
						}
						if r, err = cdc.EncodeSet(set); err != nil {
							t.Fatal(err)
						}
					}
					dec, err := cdc.DecodeSet(r.Stream, r.Width, r.Patterns)
					if err != nil {
						t.Fatal(err)
					}
					var want strings.Builder
					for i := 0; i < dec.Len(); i++ {
						want.WriteString(dec.Cube(i).String())
						want.WriteByte('\n')
					}
					for _, magic := range []string{container.Magic, container.Magic4} {
						var data bytes.Buffer
						if err := container.WriteVersion(&data, r, magic); err != nil {
							t.Fatal(err)
						}
						w := httptest.NewRecorder()
						s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/decode", &data))
						if w.Code != http.StatusOK || w.Body.String() != want.String() {
							t.Fatalf("%s: status %d, %d bytes of text differ from DecodeSet's %d", magic, w.Code, w.Body.Len(), want.Len())
						}
						if name := w.Header().Get("X-Set-Name"); name != set.Name {
							t.Fatalf("%s: X-Set-Name %q, want %q", magic, name, set.Name)
						}
					}
				})
			}
		}
	}
}

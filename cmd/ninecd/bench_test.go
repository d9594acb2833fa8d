package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/tcube"
)

// serveBody is one request body shape for the handler-stack benchmarks.
type serveBody struct {
	name string
	text []byte
}

// serveBodies returns a tiny set shaped like the small-mixed workload
// (16 patterns x 128 bits with ISCAS'89 don't-care statistics) and the
// s38417 Mintest-profile set, whose K=8 container spans several chunks.
func serveBodies(b testing.TB) []serveBody {
	b.Helper()
	p := synth.CubeProfileFor(synth.Benchmarks[0], 1)
	p.Patterns, p.Width = 16, 128
	small, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	mintest, err := synth.MintestLike("s38417")
	if err != nil {
		b.Fatal(err)
	}
	text := func(s *tcube.Set) []byte {
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	return []serveBody{{"small", text(small)}, {"mintest", text(mintest)}}
}

// discardWriter is a ResponseWriter that keeps only the status code, so
// the benchmarks time the handler stack rather than a response recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// serveOnce runs one POST through s.ServeHTTP and returns the status code.
func serveOnce(s *server, target string, body []byte) int {
	w := &discardWriter{h: make(http.Header), code: http.StatusOK}
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	return w.code
}

// runServe drives one request shape from four callers per P, so the
// admission pool, the worker slots and the encode path all see
// concurrency, and fails on any non-200 response.
func runServe(b *testing.B, s *server, target string, body []byte) {
	b.Helper()
	if code := serveOnce(s, target, body); code != http.StatusOK {
		b.Fatalf("%s: status %d", target, code)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if code := serveOnce(s, target, body); code != http.StatusOK {
				b.Errorf("%s: status %d", target, code)
				return
			}
		}
	})
}

// BenchmarkServeEncode measures POST /encode through the full handler
// stack (instrumentation, admission, parse, encode, v4 framing), with
// the result cache off and on a cache hit.
func BenchmarkServeEncode(b *testing.B) {
	for _, body := range serveBodies(b) {
		b.Run(body.name+"/cache-off", func(b *testing.B) {
			s := newServer(config{CacheOff: true, ShedQueue: 1 << 10}, obs.NewRegistry())
			runServe(b, s, "/encode", body.text)
		})
		b.Run(body.name+"/cache-hit", func(b *testing.B) {
			s := newServer(config{ShedQueue: 1 << 10}, obs.NewRegistry())
			runServe(b, s, "/encode", body.text)
		})
	}
}

// BenchmarkServeDecode measures POST /decode through the full handler
// stack: chunk read and CRC, streamed decode and text output. The
// mintest container spans two chunks and mintest-long (the same
// patterns five times over) at least eight, so the pair shows what a
// seam costs; legacy-v3 is the mintest set as a whole-payload N9C3
// container, the format earlier ninec runs wrote.
func BenchmarkServeDecode(b *testing.B) {
	for _, body := range serveBodies(b) {
		b.Run(body.name, func(b *testing.B) {
			s := newServer(config{CacheOff: true, ShedQueue: 1 << 10}, obs.NewRegistry())
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/encode", bytes.NewReader(body.text)))
			if w.Code != http.StatusOK {
				b.Fatalf("encode: status %d", w.Code)
			}
			runServe(b, s, "/decode", w.Body.Bytes())
		})
	}
	b.Run("mintest-long", func(b *testing.B) {
		set, err := synth.MintestLike("s38417")
		if err != nil {
			b.Fatal(err)
		}
		long := tcube.NewSet(set.Name, set.Width())
		for range 5 {
			for i := 0; i < set.Len(); i++ {
				long.MustAppend(set.Cube(i))
			}
		}
		cdc, err := core.New(8)
		if err != nil {
			b.Fatal(err)
		}
		r, err := cdc.EncodeSet(long)
		if err != nil {
			b.Fatal(err)
		}
		if chunks := (r.Stream.Len() + container.DefaultChunkTrits - 1) / container.DefaultChunkTrits; chunks < 8 {
			b.Fatalf("container spans %d chunks, want >= 8", chunks)
		}
		data, err := container.MarshalV4(r)
		if err != nil {
			b.Fatal(err)
		}
		s := newServer(config{CacheOff: true, ShedQueue: 1 << 10}, obs.NewRegistry())
		runServe(b, s, "/decode", data)
	})
	b.Run("legacy-v3", func(b *testing.B) {
		set, err := synth.MintestLike("s38417")
		if err != nil {
			b.Fatal(err)
		}
		cdc, err := core.New(8)
		if err != nil {
			b.Fatal(err)
		}
		r, err := cdc.EncodeSet(set)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := container.WriteVersion(&buf, r, container.Magic); err != nil {
			b.Fatal(err)
		}
		s := newServer(config{CacheOff: true, ShedQueue: 1 << 10}, obs.NewRegistry())
		runServe(b, s, "/decode", buf.Bytes())
	})
}

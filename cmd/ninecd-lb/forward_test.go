package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ninecdclient"
)

// selfNamedBackend answers /encode with its own URL as the body, so a
// client that sees only the body can still tell which backend served
// it.
func selfNamedBackend(t *testing.T) *httptest.Server {
	t.Helper()
	var srv *httptest.Server
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, srv.URL)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestPlacementAgreesWithRingClient: the lb and a ring-aware
// ninecdclient pointed straight at the same backends place every body
// on the same backend, with and without a codec profile, so a client
// that bypasses the lb still hits the backend cache the lb warmed.
func TestPlacementAgreesWithRingClient(t *testing.T) {
	var urls []string
	for i := 0; i < 4; i++ {
		urls = append(urls, selfNamedBackend(t).URL)
	}
	l := newTestLB(t, urls...)
	c, err := ninecdclient.New(ninecdclient.Config{Backends: urls, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for i := 0; i < 50; i++ {
		body := fmt.Sprintf("01X%d\n%s\n", i, strings.Repeat("10X", i))
		for _, profile := range []string{"", "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"} {
			req := httptest.NewRequest(http.MethodPost, "/encode", strings.NewReader(body))
			if profile != "" {
				req.Header.Set("X-Codec-Profile", profile)
			}
			rec := httptest.NewRecorder()
			l.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("lb encode: %d %s", rec.Code, rec.Body.String())
			}
			res, err := c.EncodeWith(context.Background(), ninecdclient.EncodeOpts{Profile: profile}, []byte(body))
			if err != nil {
				t.Fatal(err)
			}
			lbOwner, clientOwner := rec.Header().Get("X-Backend"), string(res.Container)
			if lbOwner != clientOwner {
				t.Fatalf("body %d, profile %q: lb placed on %s, client on %s", i, profile, lbOwner, clientOwner)
			}
			used[lbOwner] = true
		}
	}
	if len(used) < 3 {
		t.Fatalf("100 placements used only %d of 4 backends", len(used))
	}
}

// countingBody records whether the lb read from it at all.
type countingBody struct{ read bool }

func (b *countingBody) Read([]byte) (int, error) {
	b.read = true
	return 0, io.EOF
}

func (b *countingBody) Close() error { return nil }

// TestBodyReadEdges covers readBody's four boundaries: a declared
// length past the cap, a chunked body past the cap, a body exactly at
// the cap, and (over a real connection) a body shorter than declared.
func TestBodyReadEdges(t *testing.T) {
	const limit = 64
	var hits atomic.Int64
	var got bytes.Buffer
	var mu sync.Mutex
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		mu.Lock()
		got.Reset()
		io.Copy(&got, r.Body)
		mu.Unlock()
	}))
	t.Cleanup(backend.Close)
	l, err := newLB(backend.URL, limit, time.Second)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("declared-over-cap", func(t *testing.T) {
		body := &countingBody{}
		req := httptest.NewRequest(http.MethodPost, "/encode", nil)
		req.Body, req.ContentLength = body, limit+1
		rec := httptest.NewRecorder()
		l.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", rec.Code)
		}
		if body.read {
			t.Fatal("body read although its declared length is over the cap")
		}
	})

	t.Run("chunked-over-cap", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodPost, "/encode", strings.NewReader(strings.Repeat("1", limit+1)))
		req.ContentLength = -1
		rec := httptest.NewRecorder()
		l.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", rec.Code)
		}
	})

	if n := hits.Load(); n != 0 {
		t.Fatalf("%d over-cap requests reached the backend", n)
	}

	t.Run("exactly-at-cap", func(t *testing.T) {
		want := strings.Repeat("01X\n", limit/4)
		for _, cl := range []int64{limit, -1} {
			req := httptest.NewRequest(http.MethodPost, "/encode", strings.NewReader(want))
			req.ContentLength = cl
			rec := httptest.NewRecorder()
			l.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("Content-Length %d: status %d, want 200", cl, rec.Code)
			}
			mu.Lock()
			forwarded := got.String()
			mu.Unlock()
			if forwarded != want {
				t.Fatalf("Content-Length %d: backend got %q, want %q", cl, forwarded, want)
			}
		}
	})

	t.Run("short-body", func(t *testing.T) {
		before := hits.Load()
		front := httptest.NewServer(l)
		defer front.Close()
		conn, err := net.Dial("tcp", front.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /encode HTTP/1.1\r\nHost: lb\r\nContent-Length: 40\r\n\r\n01X\n")
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if hits.Load() != before {
			t.Fatal("a short body was forwarded")
		}
	})
}

// TestForwardReusesConnections: with more forwards in flight than
// http.DefaultTransport keeps idle per host, the lb still reuses its
// backend connections instead of dialling again for most forwards.
func TestForwardReusesConnections(t *testing.T) {
	const clients, perClient = 8, 50
	var dials, arrivals atomic.Int64
	// The backend holds the first forward of every client until all of
	// them have arrived, so the ramp opens exactly one connection per
	// client. Without the barrier a forward may dial, be handed a
	// connection freed meanwhile, and leave the dialled one idle as an
	// extra: that is the transport's ramp, not a lost idle connection.
	var ramp sync.WaitGroup
	ramp.Add(clients)
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if arrivals.Add(1) <= clients {
			ramp.Done()
			ramp.Wait()
		}
		io.WriteString(w, "ok")
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	backend.Start()
	t.Cleanup(backend.Close)
	front := httptest.NewServer(newTestLB(t, backend.URL))
	t.Cleanup(front.Close)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{}}
			defer hc.CloseIdleConnections()
			for j := 0; j < perClient; j++ {
				resp, err := hc.Post(front.URL+"/encode", "text/plain", strings.NewReader(fmt.Sprintf("set %d/%d\n", i, j)))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := dials.Load(); n > clients {
		t.Fatalf("%d forwards from %d concurrent clients opened %d backend connections, want <= %d", clients*perClient, clients, n, clients)
	}
}

// discardRecorder is a ResponseRecorder that drops the relayed body
// through io.ReaderFrom with a pooled buffer, as the http.Server's
// ResponseWriter does, so the benchmark counts the lb's allocations
// and not a copy buffer only the bare recorder forces.
type discardRecorder struct{ *httptest.ResponseRecorder }

func (discardRecorder) ReadFrom(r io.Reader) (int64, error) { return io.Copy(io.Discard, r) }

// BenchmarkForward is one relay hop: the body read, the ring key and
// the post to an in-process backend, for 01X bodies of the sizes the
// replay corpus sends.
func BenchmarkForward(b *testing.B) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "ok")
	}))
	defer backend.Close()
	l, err := newLB(backend.URL, 64<<20, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	for _, kb := range []int{24, 100, 200} {
		body := bytes.Repeat([]byte("01XX0110X1XX01X0\n"), (kb<<10)/17)
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/encode", bytes.NewReader(body))
				rec := discardRecorder{httptest.NewRecorder()}
				l.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}

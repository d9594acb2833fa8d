package ninecdclient

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// ringBackend records which bodies it served.
type ringBackend struct {
	srv *httptest.Server

	mu     sync.Mutex
	bodies map[string]int
}

func newRingBackend(t *testing.T) *ringBackend {
	t.Helper()
	b := &ringBackend{bodies: make(map[string]int)}
	mux := http.NewServeMux()
	mux.HandleFunc("/encode", func(w http.ResponseWriter, r *http.Request) {
		buf, _ := io.ReadAll(r.Body)
		b.mu.Lock()
		b.bodies[string(buf)]++
		b.mu.Unlock()
		w.Write([]byte("container"))
	})
	mux.HandleFunc("/decode", func(w http.ResponseWriter, r *http.Request) {
		buf, _ := io.ReadAll(r.Body)
		b.mu.Lock()
		b.bodies[string(buf)]++
		b.mu.Unlock()
		w.Write([]byte("01X\n"))
	})
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

func (b *ringBackend) served(body string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bodies[body]
}

func (b *ringBackend) distinct() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.bodies)
}

// TestRingRoutingStickyPlacement: with Backends configured, replays of
// one body all hit a single backend while the corpus as a whole uses
// more than one.
func TestRingRoutingStickyPlacement(t *testing.T) {
	b1, b2, b3 := newRingBackend(t), newRingBackend(t), newRingBackend(t)
	c := newTestClient(t, "", func(cfg *Config) {
		cfg.BaseURL = ""
		cfg.Backends = []string{b1.srv.URL, b2.srv.URL, b3.srv.URL}
	})
	for i := 0; i < 20; i++ {
		body := fmt.Sprintf("0101X set %d\n", i)
		for rep := 0; rep < 3; rep++ {
			if _, err := c.Encode(context.Background(), "s", 8, []byte(body)); err != nil {
				t.Fatal(err)
			}
		}
		owners := 0
		for _, b := range []*ringBackend{b1, b2, b3} {
			if n := b.served(body); n > 0 {
				owners++
				if n != 3 {
					t.Fatalf("body %d: owner served %d of 3 replays", i, n)
				}
			}
		}
		if owners != 1 {
			t.Fatalf("body %d reached %d backends, want exactly 1", i, owners)
		}
	}
	spread := 0
	for _, b := range []*ringBackend{b1, b2, b3} {
		if b.distinct() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("20 distinct bodies used only %d backend(s)", spread)
	}
}

// TestRingRoutingFailsOverToSuccessor: when a body's owner is down,
// the retry path walks to a ring successor and succeeds.
func TestRingRoutingFailsOverToSuccessor(t *testing.T) {
	alive := newRingBackend(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // refuses connections from here on
	c := newTestClient(t, "", func(cfg *Config) {
		cfg.BaseURL = ""
		cfg.Backends = []string{alive.srv.URL, dead.URL}
	})
	// Drive enough distinct bodies that some are owned by the dead node.
	for i := 0; i < 20; i++ {
		body := fmt.Sprintf("failover set %d\n", i)
		if _, err := c.Encode(context.Background(), "s", 8, []byte(body)); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
	}
	if alive.distinct() != 20 {
		t.Fatalf("survivor served %d distinct bodies, want all 20", alive.distinct())
	}
}

// TestRingRoutingDecode routes /decode by container digest too.
func TestRingRoutingDecode(t *testing.T) {
	b1, b2 := newRingBackend(t), newRingBackend(t)
	c := newTestClient(t, "", func(cfg *Config) {
		cfg.BaseURL = ""
		cfg.Backends = []string{b1.srv.URL, b2.srv.URL}
	})
	for i := 0; i < 10; i++ {
		cont := fmt.Sprintf("container-%d", i)
		for rep := 0; rep < 2; rep++ {
			if _, err := c.Decode(context.Background(), []byte(cont)); err != nil {
				t.Fatal(err)
			}
		}
		if b1.served(cont)+b2.served(cont) != 2 || (b1.served(cont) != 0 && b2.served(cont) != 0) {
			t.Fatalf("container %d split across backends: %d/%d", i, b1.served(cont), b2.served(cont))
		}
	}
}

// TestRingConfigValidation: bad backends are rejected; BaseURL stays
// optional when Backends is set and feeds observability calls.
func TestRingConfigValidation(t *testing.T) {
	if _, err := New(Config{Backends: []string{"ok:1", "ok:1"}}); err == nil {
		t.Fatal("duplicate backends accepted")
	}
	if _, err := New(Config{Backends: []string{" "}}); err == nil {
		t.Fatal("blank backend accepted")
	}
	c, err := New(Config{Backends: []string{"hostb:9314", "hosta:9314"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://hostb:9314" {
		t.Fatalf("observability base = %q, want first backend", c.base)
	}
	c, err = New(Config{BaseURL: "lb:9414", Backends: []string{"hosta:9314"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://lb:9414" {
		t.Fatalf("explicit BaseURL overridden: %q", c.base)
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fastRetry is the attempt bound the tests run under.
var fastRetry = policy{maxAttempts: 4}

// newTestClient builds a client for url under p, its backoff ceilings
// cut to 1ms doubling to 5ms so retries cost the tests no time.
func newTestClient(t *testing.T, url string, p policy) *client {
	t.Helper()
	c, err := newClient(url, &http.Client{}, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.retr.baseDelay, c.retr.maxDelay = time.Millisecond, 5*time.Millisecond
	return c
}

// TestEncodeDecodeHappyPath: the client round-trips bodies against a
// well-behaved server and names the set and the block size in the
// encode query.
func TestEncodeDecodeHappyPath(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch r.URL.Path {
		case "/encode":
			if got := r.URL.Query().Get("name"); got != "s1" {
				t.Errorf("name = %q", got)
			}
			if got := r.URL.Query().Get("k"); got != "8" {
				t.Errorf("k = %q", got)
			}
			w.Write(append([]byte("9C:"), body...))
		case "/decode":
			w.Write([]byte("01X\n"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, fastRetry)
	cont, err := c.encode(context.Background(), "s1", []byte("0101\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(cont) != "9C:0101\n" {
		t.Fatalf("encode result %q", cont)
	}
	out, err := c.decode(context.Background(), cont)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "01X\n" {
		t.Fatalf("decode = %q", out)
	}
}

// TestRetryOn503HonorsRetryAfter: 503s retry and the recovery
// succeeds; the Retry-After floor is respected between attempts.
func TestRetryOn503HonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // integer parse path, no test delay
			w.Header().Set("X-Error-Class", "saturated")
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, fastRetry)
	out, err := c.decode(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" || calls.Load() != 3 {
		t.Fatalf("out=%q calls=%d", out, calls.Load())
	}
}

// TestNoRetryOn400And413: client-fault statuses return immediately
// with the taxonomy class intact.
func TestNoRetryOn400And413(t *testing.T) {
	for _, tc := range []struct {
		status int
		class  string
	}{
		{http.StatusBadRequest, "corrupt"},
		{http.StatusRequestEntityTooLarge, "limit"},
	} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Header().Set("X-Error-Class", tc.class)
			http.Error(w, "no", tc.status)
		}))
		c := newTestClient(t, ts.URL, fastRetry)
		_, err := c.encode(context.Background(), "s", []byte("x"))
		ts.Close()
		var he *httpError
		if !errors.As(err, &he) || he.Status != tc.status {
			t.Fatalf("status %d: err = %v", tc.status, err)
		}
		if calls.Load() != 1 {
			t.Fatalf("status %d retried: %d calls", tc.status, calls.Load())
		}
		if got := errorClass(err); got != "http_"+tc.class {
			t.Fatalf("ErrorClass = %q, want http_%s", got, tc.class)
		}
	}
}

// TestRetryOnConnectionDrop: a server that kills the connection
// mid-response gets retried to success.
func TestRetryOnConnectionDrop(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close() // mid-handshake slam: the client sees EOF/reset
			return
		}
		w.Write([]byte("recovered"))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, fastRetry)
	out, err := c.decode(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "recovered" {
		t.Fatalf("out = %q", out)
	}
}

// TestHardDownServerLabels: against a server that answers every
// request with 503, each call spends its attempts and gives up with
// errAttemptsExhausted wrapping the daemon's verdict, which keeps its
// http_ class label.
func TestHardDownServerLabels(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, fastRetry)
	for i := 0; i < 10; i++ {
		_, err := c.decode(context.Background(), []byte("x"))
		if !errors.Is(err, errAttemptsExhausted) {
			t.Fatalf("call %d: err = %v, want errAttemptsExhausted", i, err)
		}
		if class := errorClass(err); class != "http_503" {
			t.Fatalf("call %d: ErrorClass = %q, want http_503 (%v)", i, class, err)
		}
	}
	if got, want := calls.Load(), int64(10*fastRetry.maxAttempts); got != want {
		t.Fatalf("server saw %d attempts, want %d", got, want)
	}
}

// TestAttemptTimeoutCutsStalledServer: a response that stalls is cut
// off by attemptTimeout long before the budget; every one of the
// maxAttempts attempts stalls and is cut, and the failure keeps the
// deadline class.
func TestAttemptTimeoutCutsStalledServer(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		// Drain the body first: the server only arms its client-gone
		// detection (which cancels r.Context) once the body hits EOF.
		io.Copy(io.Discard, r.Body)
		select { // stall until cancelled or released
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, policy{
		maxAttempts:    fastRetry.maxAttempts,
		attemptTimeout: 20 * time.Millisecond,
		budget:         10 * time.Second,
	})
	start := time.Now()
	_, err := c.decode(context.Background(), []byte("x"))
	if class := errorClass(err); class != "deadline" {
		t.Fatalf("ErrorClass = %q, want deadline (%v)", class, err)
	}
	if !errors.Is(err, errAttemptsExhausted) {
		t.Fatalf("err = %v, want errAttemptsExhausted", err)
	}
	if got := calls.Load(); got != int64(fastRetry.maxAttempts) {
		t.Fatalf("server saw %d attempts, want %d", got, fastRetry.maxAttempts)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled attempts held the call for %v", elapsed)
	}
}

// TestAttemptTimeoutRetried: an attempt cut by attemptTimeout is a
// transient fault while the call's budget is live. The first attempt
// stalls, the second answers, and the call succeeds as one recovery.
func TestAttemptTimeoutRetried(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) == 1 {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.Write([]byte("answered"))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, policy{
		maxAttempts:    fastRetry.maxAttempts,
		attemptTimeout: 50 * time.Millisecond,
		budget:         10 * time.Second,
	})
	out, err := c.decode(context.Background(), []byte("x"))
	if err != nil || string(out) != "answered" {
		t.Fatalf("Decode = %q, %v; want the second attempt's answer", out, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
	if got := reg.Counter("resilience.ninecd.decode.recovered").Value(); got != 1 {
		t.Fatalf("recovered = %d, want 1", got)
	}
}

// TestErrorClassTable pins the label for each failure family.
func TestErrorClassTable(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{&httpError{Status: 429, Class: "overload"}, "http_overload"},
		{&httpError{Status: 500}, "http_500"},
		{fmt.Errorf("wrap: %w", &httpError{Status: 503}), "http_503"},
		{context.DeadlineExceeded, "deadline"},
		{context.Canceled, "canceled"},
		{io.ErrUnexpectedEOF, "eof"},
		{errors.New("read tcp 1.2.3.4: connection reset by peer"), "conn_reset"},
		{errors.New("dial tcp: connection refused"), "conn_refused"},
		{errors.New("net/http: HTTP/1.x transport connection broken: malformed HTTP response"), "malformed_response"},
		// Matches both "malformed HTTP" and "EOF": the more specific
		// fragment must win on every run.
		{errors.New(`net/http: HTTP/1.x transport connection broken: malformed HTTP response "EOF"`), "malformed_response"},
		{errors.New("some novel failure"), "unclassified"},
	}
	for _, tc := range cases {
		if got := errorClass(tc.err); got != tc.want {
			t.Errorf("errorClass(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestRetryAfterParsing: integer Retry-After seconds land on the
// HTTPError; garbage parses to zero. RFC 9110 allows an HTTP-date as
// well — a future date yields (roughly) the remaining delay, a past
// date clamps to zero.
func TestRetryAfterParsing(t *testing.T) {
	future := time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	for raw, want := range map[string]time.Duration{
		"7":       7 * time.Second,
		"0":       0,
		"":        0,
		"garbage": 0,
		"-3":      0,
		past:      0,
		// "Mon, 32 Jan 2026 00:00:00 GMT" style garbage that is
		// date-shaped but invalid must also parse to zero.
		"Mon, 32 Jan 2026 00:00:00 GMT": 0,
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if raw != "" {
				w.Header().Set("Retry-After", raw)
			}
			http.Error(w, "no", http.StatusBadRequest) // non-retryable: one attempt
		}))
		c := newTestClient(t, ts.URL, fastRetry)
		_, err := c.encode(context.Background(), "s", []byte("x"))
		ts.Close()
		var he *httpError
		if !errors.As(err, &he) {
			t.Fatalf("Retry-After %q: %v", raw, err)
		}
		if he.RetryAfter != want {
			t.Errorf("Retry-After %q parsed to %v, want %v", raw, he.RetryAfter, want)
		}
	}
	// The future-date case needs a tolerance band (the server stamps
	// the header before the client reads the clock), so it asserts a
	// range instead of riding the exact-match table.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", future)
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, fastRetry)
	_, err := c.encode(context.Background(), "s", []byte("x"))
	var he *httpError
	if !errors.As(err, &he) {
		t.Fatalf("future date: %v", err)
	}
	if he.RetryAfter < 58*time.Minute || he.RetryAfter > time.Hour {
		t.Errorf("future HTTP-date parsed to %v, want ~1h", he.RetryAfter)
	}
}

// TestParseRetryAfter unit-tests the parser against a pinned clock,
// covering the forms the end-to-end table cannot make exact.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		raw  string
		want time.Duration
		ok   bool
	}{
		{"30", 30 * time.Second, true},
		{" 30 ", 30 * time.Second, true},
		{"0", 0, true},
		{"-5", 0, true}, // negative clamps, still a parsed verdict
		{"", 0, false},
		{"soon", 0, false},
		{"1.5", 0, false}, // fractional seconds are not in the grammar
		// Past ~292 years the seconds overflow a Duration: clamp to the
		// largest one instead of wrapping negative.
		{"10000000000", math.MaxInt64, true},
		{"99999999999999999999", math.MaxInt64, true}, // overflows int64 itself
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{now.Format(http.TimeFormat), 0, true},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0, true}, // past clamps
		// The two obsolete RFC 9110 date forms are valid on the wire.
		{now.Add(2 * time.Minute).Format(time.RFC850), 2 * time.Minute, true},
		{now.Add(2 * time.Minute).Format(time.ANSIC), 2 * time.Minute, true},
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.raw, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.raw, got, ok, tc.want, tc.ok)
		}
	}
}

// TestNewValidation: an empty address is rejected, bare host:port gets
// a scheme.
func TestNewValidation(t *testing.T) {
	if _, err := newClient(" ", &http.Client{}, policy{}, 0); err == nil {
		t.Fatal("empty address accepted")
	}
	c, err := newClient("localhost:9314", &http.Client{}, policy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://localhost:9314" {
		t.Fatalf("base = %q", c.base)
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// blockK is the block size every encode asks for (sent as ?k=8) and
// the local reference encodes use.
const blockK = 8

// maxErrorBody caps how many bytes of an error response body are
// retained on an httpError.
const maxErrorBody = 4096

// client talks to one ninecd instance. /encode and /decode run under
// the seeded retry loop (retry.go); the probes (/readyz, /metrics) are
// single shots. Safe for concurrent use.
//
// Retry semantics follow the daemon's status contract: 400 and 413
// responses are the caller's own fault and never retry; 429 and 503
// retry honoring the Retry-After header; transport-level failures
// (connection refused/reset, truncated responses) retry because both
// endpoints are pure functions of the request body — replaying a POST
// cannot double a side effect. Every failure an operator can meet has
// a stable label from errorClass, so the report can assert that no
// error goes unclassified.
type client struct {
	base string
	hc   *http.Client
	retr *retrier
}

// newClient builds a client for the daemon at addr (a bare host:port
// gets the http scheme).
func newClient(addr string, hc *http.Client, p policy, seed int64) (*client, error) {
	base := strings.TrimSuffix(strings.TrimSpace(addr), "/")
	if base == "" {
		return nil, errors.New("ninecload: empty daemon address")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if _, err := url.Parse(base); err != nil {
		return nil, fmt.Errorf("ninecload: bad daemon address: %w", err)
	}
	return &client{base: base, hc: hc, retr: newRetrier(p, seed)}, nil
}

// httpError is a non-2xx daemon response: the status code, the
// X-Error-Class taxonomy label, the parsed Retry-After, and a bounded
// prefix of the body.
type httpError struct {
	Status     int
	Class      string
	RetryAfter time.Duration
	Body       string
}

func (e *httpError) Error() string {
	msg := fmt.Sprintf("ninecd: http %d", e.Status)
	if e.Class != "" {
		msg += " (" + e.Class + ")"
	}
	if b := strings.TrimSpace(e.Body); b != "" {
		msg += ": " + b
	}
	return msg
}

// classifyRetry is the retry verdict on one failed attempt: whether to
// retry, and the server-directed minimum wait (a parsed Retry-After)
// that floors the jittered backoff.
//   - 429/503 retry, honoring Retry-After
//   - 502/504 (a fronting proxy's trouble) retry
//   - every other HTTP status is a terminal verdict: 400/413 mean the
//     request itself is bad, 500 means a daemon bug worth surfacing
//   - context cancellation/expiry never retries
//   - everything else is transport-level (reset, refused, truncated)
//     and retries: both endpoints are pure, so replay is safe
func classifyRetry(err error) (retry bool, after time.Duration) {
	var he *httpError
	if errors.As(err, &he) {
		switch he.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return true, he.RetryAfter
		case http.StatusBadGateway, http.StatusGatewayTimeout:
			return true, 0
		}
		return false, 0
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, 0
	}
	return true, 0
}

// errorClass labels err with a stable operator-facing class. Every
// failure mode the daemon, the retry loop, or the Go transport can
// produce maps to a known label; "unclassified" is reserved for
// genuinely novel failures and the report counts it as a violation.
func errorClass(err error) string {
	if err == nil {
		return ""
	}
	var he *httpError
	if errors.As(err, &he) {
		if he.Class != "" {
			return "http_" + he.Class
		}
		return "http_" + strconv.Itoa(he.Status)
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, syscall.ECONNREFUSED):
		return "conn_refused"
	case errors.Is(err, syscall.ECONNRESET):
		return "conn_reset"
	case errors.Is(err, syscall.EPIPE):
		return "broken_pipe"
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF):
		return "eof"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	// The Go HTTP transport reports several chaos-visible failures as
	// fmt.Errorf strings with no sentinel to errors.Is against; match
	// the stable message fragments so chaos runs stay fully classified.
	// The first matching fragment wins, so the more specific ones come
	// first: `malformed HTTP response "EOF"` is malformed, not eof.
	msg := err.Error()
	for _, f := range messageClasses {
		if strings.Contains(msg, f.frag) {
			return f.class
		}
	}
	return "unclassified"
}

// messageClasses maps transport error message fragments to classes,
// most specific first (see errorClass).
var messageClasses = []struct{ frag, class string }{
	{"malformed HTTP", "malformed_response"},
	{"bad chunk", "malformed_response"},
	{"unexpected content", "malformed_response"},
	{"body length mismatch", "truncated_response"},
	{"server closed", "server_closed"},
	{"connection reset", "conn_reset"},
	{"connection refused", "conn_refused"},
	{"broken pipe", "broken_pipe"},
	{"no such host", "dns"},
	{"network is unreachable", "unreachable"},
	{"timeout", "timeout"},
	{"deadline", "deadline"},
	{"EOF", "eof"},
}

// encode posts 01X text and returns the v4 container, retrying under
// the client's policy. name labels the set inside the container.
func (c *client) encode(ctx context.Context, name string, text []byte) ([]byte, error) {
	q := url.Values{"name": {name}, "k": {strconv.Itoa(blockK)}}
	return c.post(ctx, "ninecd.encode", "/encode?"+q.Encode(), "text/plain; charset=utf-8", text)
}

// decode posts a container (any version) and returns the decoded 01X
// text, retrying under the client's policy.
func (c *client) decode(ctx context.Context, cont []byte) ([]byte, error) {
	return c.post(ctx, "ninecd.decode", "/decode", "application/octet-stream", cont)
}

// ready probes /readyz once (no retry — a readiness probe's failure IS
// its answer). It returns nil when the daemon reports ready and an
// *httpError carrying the degraded body otherwise.
func (c *client) ready(ctx context.Context) error {
	_, err := c.get(ctx, "/readyz")
	return err
}

// metrics fetches /metrics and parses the Prometheus text exposition.
func (c *client) metrics(ctx context.Context) (*obs.PromScrape, error) {
	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	s, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("ninecload: metrics: %w", err)
	}
	return s, nil
}

// get is a plain single-shot GET (observability endpoints are probes,
// not workloads: no retry).
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.roundTrip(req)
}

// post runs one POST under the retry loop, labelled route. The body is
// rebuilt from the byte slice per attempt, so retries never share a
// consumed reader.
func (c *client) post(ctx context.Context, route, path, contentType string, body []byte) ([]byte, error) {
	var out []byte
	err := c.retr.do(ctx, route, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", contentType)
		out, err = c.roundTrip(req)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// roundTrip sends req and returns the full response body on 200 and a
// classified error otherwise.
func (c *client) roundTrip(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, readHTTPError(resp)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("ninecload: reading response: %w", err)
	}
	return out, nil
}

// readHTTPError drains a bounded prefix of an error response into an
// *httpError, parsing Retry-After and X-Error-Class.
func readHTTPError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	he := &httpError{
		Status: resp.StatusCode,
		Class:  resp.Header.Get("X-Error-Class"),
		Body:   string(body),
	}
	if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
		he.RetryAfter = d
	}
	return he
}

// parseRetryAfter interprets a Retry-After value per RFC 9110: either
// a delay in integer seconds or an HTTP-date. Historically only the
// integer form was parsed, so a proxy or daemon answering with a date
// (equally valid on the wire) had its advice silently dropped and the
// retrier fell back to blind backoff — often hammering a server that
// had named an exact reopening time. A negative delay or a date in the
// past clamps to zero (retry immediately); a delay too long for a
// time.Duration clamps to the largest one, so a budgeted retry loop
// gives up rather than wrapping negative and retrying at once; a
// value in neither form reports false and the caller keeps its own
// schedule.
func parseRetryAfter(raw string, now time.Time) (time.Duration, bool) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return 0, false
	}
	// ParseInt saturates on overflow and says so with ErrRange.
	if secs, err := strconv.ParseInt(raw, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs < 0:
			return 0, true
		case secs > int64(math.MaxInt64/time.Second):
			return math.MaxInt64, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(raw); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

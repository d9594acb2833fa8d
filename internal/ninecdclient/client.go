// Package ninecdclient is the retrying Go client for the ninecd HTTP
// API. It has one policy: /encode and /decode run under a seeded
// full-jitter retry loop with a per-attempt timeout and a hard deadline
// budget, and with Config.Backends each retry walks the consistent-hash
// ring's failover order, so a dead backend costs one attempt rather
// than the call.
//
// Retry semantics follow the daemon's status contract: 400 and 413
// responses are the caller's own fault and never retry; 429 and 503
// retry honoring the Retry-After header; transport-level failures
// (connection refused/reset, truncated responses) retry because both
// endpoints are pure functions of the request body — replaying a POST
// cannot double a side effect. Every failure an operator can meet has
// a stable label from ErrorClass, so load tests can assert that no
// error goes unclassified.
package ninecdclient

import (
	"bytes"
	"context"
	"encoding/json"
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

	"repro/internal/hashring"
	"repro/internal/obs"
)

// normalizeBase canonicalizes a daemon root: trimmed, no trailing
// slash, http scheme assumed for bare host:port.
func normalizeBase(raw string) (string, error) {
	base := strings.TrimSuffix(strings.TrimSpace(raw), "/")
	if base == "" {
		return "", errors.New("empty URL")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if _, err := url.Parse(base); err != nil {
		return "", err
	}
	return base, nil
}

// Config assembles a Client. Zero fields take the documented defaults.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://localhost:9314" (a bare
	// host:port gets the http scheme). Required unless Backends is set.
	BaseURL string
	// Backends enables ring-aware routing: requests shard by consistent
	// hash of their body across these daemon roots — the same placement
	// a ninecd-lb front computes, so pointing a client directly at the
	// backends bypasses the lb without scattering each set's duplicates
	// across every backend cache. The placement is hashring.HashTagged,
	// so it agrees with an lb built from the same version; across
	// versions that changed the hash, backend caches re-warm once.
	// Retries walk the ring's failover order (owner first, then
	// successors). Observability calls (Ready, Metrics) target BaseURL
	// when set, else the first backend.
	Backends []string
	// VNodes is the virtual-node count per backend for ring routing
	// (default hashring.DefaultVNodes). Must match the lb's -vnodes for
	// placements to agree.
	VNodes int
	// HTTPClient overrides the transport (default: a fresh http.Client;
	// per-attempt deadlines come from Retry.AttemptTimeout).
	HTTPClient *http.Client
	// Retry is the backoff policy (defaults per Policy).
	Retry Policy
	// Seed determines the jitter stream; same seed, same delays.
	Seed int64
}

// maxErrorBody caps how many bytes of an error response body are
// retained on an HTTPError.
const maxErrorBody = 4096

// Client talks to one ninecd instance — or, with Config.Backends, to a
// consistent-hash ring of them. Safe for concurrent use.
type Client struct {
	base string
	ring *hashring.Ring
	hc   *http.Client
	retr *retrier
}

// New validates cfg and builds a Client.
func New(cfg Config) (*Client, error) {
	var ring *hashring.Ring
	backends := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		n, err := normalizeBase(b)
		if err != nil {
			return nil, fmt.Errorf("ninecdclient: bad backend %q: %w", b, err)
		}
		backends = append(backends, n)
	}
	if len(backends) > 0 {
		r, err := hashring.New(backends, cfg.VNodes)
		if err != nil {
			return nil, fmt.Errorf("ninecdclient: %w", err)
		}
		ring = r
	}
	var base string
	switch {
	case strings.TrimSpace(cfg.BaseURL) != "":
		b, err := normalizeBase(cfg.BaseURL)
		if err != nil {
			return nil, fmt.Errorf("ninecdclient: bad BaseURL: %w", err)
		}
		base = b
	case len(backends) > 0:
		base = backends[0]
	default:
		return nil, errors.New("ninecdclient: BaseURL or Backends required")
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{
		base: base,
		ring: ring,
		hc:   hc,
		retr: newRetrier(cfg.Retry, cfg.Seed),
	}, nil
}

// baseFor resolves the daemon root for one attempt at a request whose
// body hashes to h. Without ring routing every attempt goes to the
// single base; with it, attempt 0 goes to the ring owner and each
// retry advances to the next successor — the node that would inherit
// the key if the owner dropped out — so a dead backend is routed
// around within the normal retry budget, at the cost of one cold
// cache miss on the stand-in.
func (c *Client) baseFor(h uint64, attempt int) string {
	if c.ring == nil {
		return c.base
	}
	order := c.ring.PickN(h, len(c.ring.Nodes()))
	if len(order) == 0 {
		return c.base
	}
	return order[attempt%len(order)]
}

// HTTPError is a non-2xx daemon response: the status code, the
// X-Error-Class taxonomy label, the parsed Retry-After, and a bounded
// prefix of the body.
type HTTPError struct {
	Status     int
	Class      string
	RetryAfter time.Duration
	Body       string
}

func (e *HTTPError) Error() string {
	msg := fmt.Sprintf("ninecd: http %d", e.Status)
	if e.Class != "" {
		msg += " (" + e.Class + ")"
	}
	if b := strings.TrimSpace(e.Body); b != "" {
		msg += ": " + b
	}
	return msg
}

// ClassifyRetry is the client's retry verdict on one failed attempt:
// whether to retry, and the server-directed minimum wait (a parsed
// Retry-After) that floors the jittered backoff.
//   - 429/503 retry, honoring Retry-After
//   - 502/504 (a fronting proxy's trouble) retry
//   - every other HTTP status is a terminal verdict: 400/413 mean the
//     request itself is bad, 500 means a daemon bug worth surfacing
//   - context cancellation/expiry never retries
//   - everything else is transport-level (reset, refused, truncated)
//     and retries: both endpoints are pure, so replay is safe
func ClassifyRetry(err error) (retry bool, after time.Duration) {
	var he *HTTPError
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

// ErrorClass labels err with a stable operator-facing class. Every
// failure mode the daemon, the retry loop, or the Go transport can
// produce maps to a known label; "unclassified" is reserved for
// genuinely novel failures and load harnesses assert it never appears.
func ErrorClass(err error) string {
	if err == nil {
		return ""
	}
	var he *HTTPError
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
// most specific first (see ErrorClass).
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

// EncodeResult is a successful /encode response.
type EncodeResult struct {
	// Container is the chunked v4 container.
	Container []byte
	// Patterns and CompressedBits echo the daemon's X-Patterns and
	// X-Compressed-Bits response headers.
	Patterns       int
	CompressedBits int
	// Profile echoes the daemon's X-Codec-Profile header: the tuned
	// profile the container was actually encoded under, empty for the
	// fixed code.
	Profile string
}

// EncodeOpts parameterizes EncodeWith beyond the body bytes.
type EncodeOpts struct {
	// Name labels the set inside the container.
	Name string
	// K is the block size; <= 0 uses the daemon default. Ignored when
	// Profile is set — the profile owns the codec axes.
	K int
	// Profile selects a tuned codec profile by content address (sent
	// as X-Codec-Profile). The daemon answers 404 class
	// profile_unknown when the profile is not resident — install it
	// with InstallProfile first.
	Profile string
}

// Encode posts 01X text and returns the v4 container, retrying under
// the client's policy. name labels the set inside the container; k <=
// 0 uses the daemon default.
func (c *Client) Encode(ctx context.Context, name string, k int, text []byte) (*EncodeResult, error) {
	return c.EncodeWith(ctx, EncodeOpts{Name: name, K: k}, text)
}

// EncodeWith is Encode with the full option set. Ring routing shards
// on HashTagged(profile, body): profiled and fixed encodes of the same
// bytes are different responses, so they place independently and each
// backend's cache sees one coherent family.
func (c *Client) EncodeWith(ctx context.Context, opts EncodeOpts, text []byte) (*EncodeResult, error) {
	q := url.Values{}
	if opts.Name != "" {
		q.Set("name", opts.Name)
	}
	if opts.K > 0 && opts.Profile == "" {
		q.Set("k", strconv.Itoa(opts.K))
	}
	path := "/encode"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var hdr http.Header
	if opts.Profile != "" {
		hdr = http.Header{"X-Codec-Profile": []string{opts.Profile}}
	}
	h := hashring.HashTagged(opts.Profile, text)
	var res *EncodeResult
	err := c.retr.do(ctx, "ninecd.encode", func(ctx context.Context, try int) error {
		body, rh, err := c.roundTrip(ctx, c.baseFor(h, try), path, "text/plain; charset=utf-8", hdr, text)
		if err != nil {
			return err
		}
		patterns, _ := strconv.Atoi(rh.Get("X-Patterns"))
		bits, _ := strconv.Atoi(rh.Get("X-Compressed-Bits"))
		res = &EncodeResult{
			Container:      body,
			Patterns:       patterns,
			CompressedBits: bits,
			Profile:        rh.Get("X-Codec-Profile"),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TrainReport is the daemon's POST /train response: the winning
// profile's content address and canonical encoding plus the exact
// bits ledger it was scored on.
type TrainReport struct {
	ProfileID string  `json:"id"`
	Canonical string  `json:"profile"`
	OrigBits  int     `json:"orig_bits"`
	TunedBits int     `json:"tuned_bits"`
	FixedBits int     `json:"fixed_bits"`
	FixedK    int     `json:"fixed_k"`
	TunedCR   float64 `json:"tuned_cr"`
	FixedCR   float64 `json:"fixed_cr"`
	UpliftPct float64 `json:"uplift_pct"`
}

// Train posts a 01X training corpus and returns the train report; the
// winning profile is resident on the trained daemon afterwards (behind
// a ninecd-lb, on every healthy backend). A single attempt, no retry:
// training is deterministic but encodes the corpus once per (K, fill)
// cell, and a timeout here should surface rather than silently triple
// the bill.
func (c *Client) Train(ctx context.Context, corpus []byte) (*TrainReport, error) {
	body, _, err := c.roundTrip(ctx, c.base, "/train", "text/plain; charset=utf-8", nil, corpus)
	if err != nil {
		return nil, err
	}
	var rep TrainReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("ninecdclient: train report: %w", err)
	}
	return &rep, nil
}

// InstallProfile installs a profile (its canonical text, as carried by
// TrainReport.Canonical or served by ProfileText) and returns its ID.
// With ring routing the install fans out to every registered backend —
// a profiled encode may land anywhere, so residency must be global.
func (c *Client) InstallProfile(ctx context.Context, canonical []byte) (string, error) {
	targets := []string{c.base}
	if c.ring != nil {
		targets = c.ring.Nodes()
	}
	var id string
	for _, t := range targets {
		_, hdr, err := c.roundTrip(ctx, t, "/profiles", "text/plain; charset=utf-8", nil, canonical)
		if err != nil {
			return "", fmt.Errorf("ninecdclient: install on %s: %w", t, err)
		}
		id = hdr.Get("X-Codec-Profile")
	}
	return id, nil
}

// ProfileText fetches a resident profile's canonical encoding.
func (c *Client) ProfileText(ctx context.Context, id string) ([]byte, error) {
	return c.get(ctx, "/profiles/"+url.PathEscape(id))
}

// Decode posts a container (any version) and returns the decoded 01X
// text, retrying under the client's policy.
func (c *Client) Decode(ctx context.Context, cont []byte) ([]byte, error) {
	h := hashring.Hash(cont)
	var out []byte
	err := c.retr.do(ctx, "ninecd.decode", func(ctx context.Context, try int) error {
		body, _, err := c.roundTrip(ctx, c.baseFor(h, try), "/decode", "application/octet-stream", nil, cont)
		if err != nil {
			return err
		}
		out = body
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Ready probes /readyz once (no retry — a readiness probe's failure IS
// its answer). It returns nil when the daemon reports ready and an
// *HTTPError carrying the degraded body otherwise.
func (c *Client) Ready(ctx context.Context) error {
	_, err := c.get(ctx, "/readyz")
	return err
}

// Metrics fetches /metrics and parses the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (*obs.PromScrape, error) {
	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	s, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("ninecdclient: metrics: %w", err)
	}
	return s, nil
}

// get is a plain single-shot GET (observability endpoints are probes,
// not workloads: no retry).
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.httpError(resp)
	}
	return io.ReadAll(resp.Body)
}

// roundTrip performs one POST attempt, returning the full response
// body on 200 and a classified error otherwise. The body is rebuilt
// from the byte slice per attempt, so retries never share a consumed
// reader. extra carries request headers beyond Content-Type (nil for
// none).
func (c *Client) roundTrip(ctx context.Context, base, path, contentType string, extra http.Header, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	for k, vs := range extra {
		req.Header[k] = vs
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, c.httpError(resp)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("ninecdclient: reading response: %w", err)
	}
	return out, resp.Header, nil
}

// httpError drains a bounded prefix of an error response into an
// *HTTPError, parsing Retry-After and X-Error-Class.
func (c *Client) httpError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	he := &HTTPError{
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

// Package ninecdclient is the resilient Go client for the ninecd HTTP
// API: it wraps /encode and /decode with the internal/resilience
// policies — seeded full-jitter retry under a deadline budget, a
// failure-rate circuit breaker, a client-side token-bucket limiter,
// and hedged requests for the idempotent decode path.
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
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/hashring"
	"repro/internal/obs"
	"repro/internal/resilience"
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
	// across every backend cache. Retries walk the ring's failover
	// order (owner first, then successors). Observability calls (Ready,
	// Metrics) target BaseURL when set, else the first backend.
	Backends []string
	// VNodes is the virtual-node count per backend for ring routing
	// (default hashring.DefaultVNodes). Must match the lb's -vnodes for
	// placements to agree.
	VNodes int
	// HTTPClient overrides the transport (default: a fresh http.Client;
	// per-attempt deadlines come from Retry.AttemptTimeout).
	HTTPClient *http.Client
	// Retry is the backoff policy (defaults per resilience.Policy).
	Retry resilience.Policy
	// Seed determines the jitter stream; same seed, same delays.
	Seed int64
	// Breaker is the circuit-breaker policy; DisableBreaker turns the
	// breaker off entirely.
	Breaker        resilience.BreakerConfig
	DisableBreaker bool
	// Rate/Burst configure the client-side token bucket limiter in
	// requests/second (Rate <= 0 = unlimited).
	Rate  float64
	Burst int
	// HedgeDelay arms request hedging on Decode (idempotent): when an
	// attempt has not answered after this long, up to HedgeMax extra
	// attempts race it (HedgeMax default 1). 0 disables hedging.
	HedgeDelay time.Duration
	HedgeMax   int
	// MaxErrorBody caps how many bytes of an error response body are
	// retained on an HTTPError (default 4096).
	MaxErrorBody int64
}

// Client talks to one ninecd instance — or, with Config.Backends, to a
// consistent-hash ring of them. Safe for concurrent use.
type Client struct {
	base       string
	ring       *hashring.Ring
	hc         *http.Client
	retr       *resilience.Retrier
	breaker    *resilience.Breaker
	limiter    *resilience.Limiter
	hedgeDelay time.Duration
	hedgeMax   int
	maxErrBody int64
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
	var breaker *resilience.Breaker
	if !cfg.DisableBreaker {
		bc := cfg.Breaker
		if bc.Name == "" {
			bc.Name = "ninecd_client"
		}
		breaker = resilience.NewBreaker(bc)
	}
	hedgeMax := cfg.HedgeMax
	if hedgeMax <= 0 {
		hedgeMax = 1
	}
	maxErrBody := cfg.MaxErrorBody
	if maxErrBody <= 0 {
		maxErrBody = 4096
	}
	return &Client{
		base:       base,
		ring:       ring,
		hc:         hc,
		retr:       resilience.NewRetrier(cfg.Retry, ClassifyRetry, cfg.Seed),
		breaker:    breaker,
		limiter:    resilience.NewLimiter(cfg.Rate, cfg.Burst),
		hedgeDelay: cfg.HedgeDelay,
		hedgeMax:   hedgeMax,
		maxErrBody: maxErrBody,
	}, nil
}

// BreakerState reports the circuit state (Closed when disabled).
func (c *Client) BreakerState() resilience.BreakerState { return c.breaker.State() }

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

// ClassifyRetry is the retry policy over client errors, exported so
// callers composing their own Retrier keep the same semantics:
//   - 429/503 retry, honoring Retry-After
//   - 502/504 (a fronting proxy's trouble) retry
//   - every other HTTP status is a terminal verdict: 400/413 mean the
//     request itself is bad, 500 means a daemon bug worth surfacing
//   - a short-circuited breaker retries (the backoff waits out the
//     open window)
//   - context cancellation/expiry never retries
//   - everything else is transport-level (reset, refused, truncated)
//     and retries: both endpoints are pure, so replay is safe
func ClassifyRetry(err error) resilience.Decision {
	var he *HTTPError
	if errors.As(err, &he) {
		switch he.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return resilience.Decision{Retry: true, After: he.RetryAfter}
		case http.StatusBadGateway, http.StatusGatewayTimeout:
			return resilience.Decision{Retry: true}
		}
		return resilience.Decision{}
	}
	if errors.Is(err, resilience.ErrBreakerOpen) {
		return resilience.Decision{Retry: true}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return resilience.Decision{}
	}
	return resilience.Decision{Retry: true}
}

// ErrorClass labels err with a stable operator-facing class. Every
// failure mode the daemon, the resilience layer, or the Go transport
// can produce maps to a known label; "unclassified" is reserved for
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
	case errors.Is(err, resilience.ErrBreakerOpen):
		return "breaker_open"
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
	msg := err.Error()
	for frag, class := range map[string]string{
		"connection reset":       "conn_reset",
		"connection refused":     "conn_refused",
		"broken pipe":            "broken_pipe",
		"EOF":                    "eof",
		"malformed HTTP":         "malformed_response",
		"bad chunk":              "malformed_response",
		"server closed":          "server_closed",
		"body length mismatch":   "truncated_response",
		"unexpected content":     "malformed_response",
		"timeout":                "timeout",
		"deadline":               "deadline",
		"no such host":           "dns",
		"network is unreachable": "unreachable",
	} {
		if strings.Contains(msg, frag) {
			return class
		}
	}
	return "unclassified"
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
	attempt := 0
	var res *EncodeResult
	err := c.retr.Do(ctx, "ninecd.encode", func(ctx context.Context) error {
		base := c.baseFor(h, attempt)
		attempt++
		body, rh, err := c.roundTrip(ctx, base, path, "text/plain; charset=utf-8", hdr, text)
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
	DictBits  int     `json:"dict_bits"`
	DictCodec string  `json:"dict_codec"`
	Winner    string  `json:"winner"`
	TunedCR   float64 `json:"tuned_cr"`
	FixedCR   float64 `json:"fixed_cr"`
	UpliftPct float64 `json:"uplift_pct"`
	Evals     int     `json:"evals"`
	Seed      int64   `json:"seed"`
}

// Train posts a 01X training corpus and returns the search report; the
// winning profile is resident on the trained daemon afterwards (behind
// a ninecd-lb, on every healthy backend). A single attempt, no retry:
// the search is deterministic but expensive, and a timeout here should
// surface rather than silently triple the bill.
func (c *Client) Train(ctx context.Context, corpus []byte, seed int64) (*TrainReport, error) {
	path := "/train"
	if seed != 0 {
		path += "?seed=" + strconv.FormatInt(seed, 10)
	}
	body, _, err := c.roundTrip(ctx, c.base, path, "text/plain; charset=utf-8", nil, corpus)
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
// text. Decode is idempotent, so when HedgeDelay is armed each retry
// attempt may race a hedge against a stalled primary.
func (c *Client) Decode(ctx context.Context, cont []byte) ([]byte, error) {
	h := hashring.Hash(cont)
	attempt := 0
	var out []byte
	err := c.retr.Do(ctx, "ninecd.decode", func(ctx context.Context) error {
		base := c.baseFor(h, attempt)
		attempt++
		body, err := resilience.Hedged(ctx, "ninecd.decode", c.hedgeDelay, c.hedgeMax,
			func(ctx context.Context, hedge int) ([]byte, error) {
				// A hedge races the stalled primary from the next ring
				// position — same failover order the retry path walks.
				hb := base
				if hedge > 0 {
					hb = c.baseFor(h, attempt-1+hedge)
				}
				b, _, err := c.roundTrip(ctx, hb, "/decode", "application/octet-stream", nil, cont)
				return b, err
			})
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
// not workloads: no retry, no breaker, no limiter).
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

// roundTrip performs one POST attempt under the limiter and breaker,
// returning the full response body on 200 and a classified error
// otherwise. The body is rebuilt from the byte slice per attempt, so
// retries and hedges never share a consumed reader. extra carries
// request headers beyond Content-Type (nil for none).
func (c *Client) roundTrip(ctx context.Context, base, path, contentType string, extra http.Header, body []byte) ([]byte, http.Header, error) {
	if err := c.limiter.Wait(ctx); err != nil {
		return nil, nil, err
	}
	done, err := c.breaker.Allow()
	if err != nil {
		return nil, nil, err
	}
	b, hdr, err := c.post(ctx, base, path, contentType, extra, body)
	// Only daemon-side pressure and transport loss count against the
	// breaker; a 400/413 verdict on this request's own bytes says
	// nothing about the server's health.
	var he *HTTPError
	if err != nil && errors.As(err, &he) && he.Status < 500 && he.Status != http.StatusTooManyRequests {
		done(true)
	} else {
		done(err == nil)
	}
	return b, hdr, err
}

func (c *Client) post(ctx context.Context, base, path, contentType string, extra http.Header, body []byte) ([]byte, http.Header, error) {
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
	limit := c.maxErrBody
	if limit <= 0 {
		limit = 4096
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, limit))
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
// past clamps to zero (retry immediately); a value in neither form
// reports false and the caller keeps its own schedule.
func parseRetryAfter(raw string, now time.Time) (time.Duration, bool) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(raw); err == nil {
		if secs < 0 {
			return 0, true
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

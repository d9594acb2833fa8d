// Command ninecd-lb fronts a fleet of ninecd backends with
// consistent-hash routing: every POST body is hashed and the request
// forwarded to the ring owner of that key, so all replays of the
// same test set land on the same backend and that backend's
// content-addressed cache absorbs the full duplicate stream. The lb
// speaks the existing ninecd HTTP API unchanged — clients cannot tell
// it from a single daemon (except for the X-Backend header it adds).
//
// A forward allocates nothing that grows with the body. The body is
// read once into a pooled, reference-counted buffer sized from
// Content-Length (up to 1 MiB ahead of the bytes) and keyed with
// hardware CRC-32C (hashring.HashTagged). Each send to a backend reads
// it through its own reader, whose Close drops a reference, and the
// backend connection writes it through a pooled 256 KiB buffer; the
// answer is relayed through a pooled 32 KiB one. The buffer goes back
// to the pool only when the handler and every send are done with it.
// The key only places load; the backend cache keys on a secret-keyed
// MAC (internal/cachex).
//
// Usage:
//
//	ninecd-lb -addr :9414 -backends host1:9314,host2:9314,host3:9314
//	ninecd-lb -check-interval 2s              # health-check cadence
//
// Endpoints:
//
//	POST /encode, /decode   # forwarded to the ring owner of (profile, body)
//	POST /train             # trained on the corpus owner, profile synced fleet-wide
//	POST /profiles          # profile installed on every healthy backend
//	GET  /profiles/{id}     # served by the first healthy backend holding it
//	GET  /healthz           # lb liveness
//	GET  /readyz            # 200 while >= 1 backend is healthy
//	GET  /ring              # topology: backends and their health
//	GET  /metrics           # lb's own Prometheus exposition
//
// Backends are health-checked via their /readyz on -check-interval;
// an unready backend leaves the ring and its keys fall to their ring
// successors until it recovers (consistent hashing keeps every other
// backend's placement — and cache — untouched). A forward that fails
// at the transport level fails over to the next ring successor within
// the same request; backend HTTP verdicts (3xx/400/413/429/...) are
// relayed as-is, since the backend has already answered.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/hashring"
	"repro/internal/obs"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	var (
		addr          string
		backendsCSV   string
		checkInterval time.Duration
		checkTimeout  time.Duration
		maxBody       int64
	)
	fs := flag.NewFlagSet("ninecd-lb", flag.ContinueOnError)
	fs.StringVar(&addr, "addr", "localhost:9414", "listen address")
	fs.StringVar(&backendsCSV, "backends", "", "comma-separated ninecd backends (host:port or URL), required")
	fs.DurationVar(&checkInterval, "check-interval", 2*time.Second, "backend /readyz poll interval")
	fs.DurationVar(&checkTimeout, "check-timeout", time.Second, "per-probe timeout for backend health checks")
	fs.Int64Var(&maxBody, "max-body", 64<<20, "request body cap in bytes")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	lb, err := newLB(backendsCSV, maxBody, checkTimeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninecd-lb:", err)
		return 2
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninecd-lb:", err)
		return 1
	}
	log.Printf("ninecd-lb: listening on %s, %d backends", ln.Addr(), len(lb.backends))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopChecks := lb.startHealthChecks(checkInterval)
	defer stopChecks()

	if err := serve(ctx, ln, lb, drainBudget); err != nil {
		fmt.Fprintln(os.Stderr, "ninecd-lb:", err)
		return 1
	}
	log.Printf("ninecd-lb: drained, bye")
	return 0
}

// drainBudget is how long in-flight forwards may run after SIGTERM.
const drainBudget = 15 * time.Second

// serve mirrors ninecd's shutdown contract: SIGTERM closes the
// listener, in-flight forwards get up to drain to finish.
func serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if d, ok := h.(interface{ StartDrain() }); ok {
		d.StartDrain()
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

type lb struct {
	ring         *hashring.Ring
	backends     []string
	fwd          *http.Transport
	probe        *http.Client
	maxBody      int64
	mux          *http.ServeMux
	reg          *obs.Registry
	draining     atomic.Bool
	requests     *obs.Counter
	failovers    *obs.Counter
	noBackend    *obs.Counter
	checkFlips   *obs.Counter
	healthyGauge *obs.Gauge

	// bodyReleased, when set (by tests), sees each request body's bytes
	// at its last release, before the buffer goes back to the pool.
	bodyReleased func([]byte)
}

// forwardIdlePerHost is the idle connection pool kept per backend.
// http.DefaultTransport keeps two: with more forwards than that in
// flight to one backend, every connection returned past the second
// would be closed and the next forward would dial again. The lb's
// concurrency toward a backend is set by its clients, not by a flag,
// so the pool is sized for a busy front rather than derived from one.
const forwardIdlePerHost = 64

// forwardTransport is http.DefaultTransport with an idle pool of
// forwardIdlePerHost connections to each of n backends, each of which
// writes request bodies through a pooled buffer (sendConn).
func forwardTransport(n int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = n * forwardIdlePerHost
	t.MaxIdleConnsPerHost = forwardIdlePerHost
	dial := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return sendConn{c}, nil
	}
	return t
}

// newLB parses the backend list and assembles the routing handler.
func newLB(backendsCSV string, maxBody int64, checkTimeout time.Duration) (*lb, error) {
	var backends []string
	for _, raw := range strings.Split(backendsCSV, ",") {
		b := strings.TrimSuffix(strings.TrimSpace(raw), "/")
		if b == "" {
			continue
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		backends = append(backends, b)
	}
	if len(backends) == 0 {
		return nil, errors.New("-backends required (comma-separated host:port list)")
	}
	ring, err := hashring.New(backends)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	l := &lb{
		ring:     ring,
		backends: backends,
		// Forwards inherit the inbound request context — no global
		// timeout here; the backend owns the per-request deadline.
		fwd:          forwardTransport(len(backends)),
		probe:        &http.Client{Timeout: checkTimeout},
		maxBody:      maxBody,
		reg:          reg,
		requests:     reg.Counter("ninecdlb.requests"),
		failovers:    reg.Counter("ninecdlb.failovers"),
		noBackend:    reg.Counter("ninecdlb.no_backend"),
		checkFlips:   reg.Counter("ninecdlb.health_transitions"),
		healthyGauge: reg.Gauge("ninecdlb.healthy_backends"),
	}
	reg.Describe("ninecdlb.requests", "requests forwarded through the consistent-hash front")
	reg.Describe("ninecdlb.failovers", "forwards retried on a ring successor after a transport failure")
	reg.Describe("ninecdlb.no_backend", "requests refused because no backend was reachable")
	reg.Describe("ninecdlb.health_transitions", "backend ready/unready flips observed by the health checker")
	reg.Describe("ninecdlb.healthy_backends", "backends currently on the ring")
	l.healthyGauge.Set(int64(len(backends)))

	mux := http.NewServeMux()
	mux.HandleFunc("/encode", l.forward)
	mux.HandleFunc("/decode", l.forward)
	mux.HandleFunc("/train", l.handleTrain)
	mux.HandleFunc("/profiles", l.handleProfileInstall)
	mux.HandleFunc("/profiles/", l.handleProfileGet)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", l.handleReady)
	mux.HandleFunc("/ring", l.handleRing)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		reg.WritePrometheus(w)
	})
	l.mux = mux
	return l, nil
}

func (l *lb) ServeHTTP(w http.ResponseWriter, r *http.Request) { l.mux.ServeHTTP(w, r) }

// StartDrain flips /readyz ahead of listener shutdown, same contract
// as the daemon itself.
func (l *lb) StartDrain() { l.draining.Store(true) }

func (l *lb) handleReady(w http.ResponseWriter, _ *http.Request) {
	healthy := l.ring.Healthy()
	if l.draining.Load() || len(healthy) == 0 {
		w.Header().Set("Retry-After", "2")
		http.Error(w, "no healthy backends", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok: %d/%d backends\n", len(healthy), len(l.backends))
}

func (l *lb) handleRing(w http.ResponseWriter, _ *http.Request) {
	healthy := make(map[string]bool)
	for _, b := range l.ring.Healthy() {
		healthy[b] = true
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, "{\"backends\":[")
	for i, b := range l.backends {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "{\"url\":%q,\"healthy\":%v}", b, healthy[b])
	}
	fmt.Fprint(w, "]}\n")
}

// forward routes one POST to the ring owner of its body, failing over
// along the ring's successor order when a backend cannot be reached
// at all. A backend that answers — with any status — ends the attempt
// chain: its verdict is the fleet's verdict.
func (l *lb) forward(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	l.requests.Inc()
	body, ok := l.readBody(w, r)
	if !ok {
		return
	}
	defer body.release()
	// The shard key folds in the codec profile (empty for fixed-code
	// requests, where HashTagged degenerates to Hash): a profiled
	// encode of some body is a different response than its fixed
	// encode, so the two must place independently or one backend's
	// cache would interleave both families.
	resp, backend, ok := l.forwardOrdered(w, r, hashring.HashTagged(r.Header.Get("X-Codec-Profile"), body.buf), body)
	if !ok {
		return
	}
	relay(w, resp, backend)
}

// forwardOrdered posts body along the ring's failover order for key,
// returning the first backend that answered. On failure it has
// already written the 502/503 and returns ok == false.
func (l *lb) forwardOrdered(w http.ResponseWriter, r *http.Request, key uint64, body *body) (*http.Response, string, bool) {
	order := l.ring.PickN(key, len(l.backends))
	if len(order) == 0 {
		l.noBackend.Inc()
		w.Header().Set("Retry-After", "2")
		http.Error(w, "no healthy backends", http.StatusServiceUnavailable)
		return nil, "", false
	}
	url := r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var lastErr error
	for i, backend := range order {
		if i > 0 {
			l.failovers.Inc()
		}
		resp, err := l.post(r, backend+url, body)
		if err != nil {
			lastErr = err
			continue
		}
		return resp, backend, true
	}
	l.noBackend.Inc()
	log.Printf("ninecd-lb: all %d backends failed for %s: %v", len(order), r.URL.Path, lastErr)
	w.Header().Set("Retry-After", "2")
	http.Error(w, "all backends unreachable", http.StatusBadGateway)
	return nil, "", false
}

// post sends body to url with the forwarded headers of r, straight
// through the forward transport: a proxy relays a backend's 3xx rather
// than following it. The body goes out through a reader of its own,
// which the transport closes; GetBody lets the transport resend it on a
// fresh connection when a reused one turns out closed.
func (l *lb) post(r *http.Request, url string, body *body) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, url, nil)
	if err != nil {
		return nil, err
	}
	if len(body.buf) > 0 {
		req.ContentLength = int64(len(body.buf))
		req.Body = body.reader()
		req.GetBody = func() (io.ReadCloser, error) { return body.reader(), nil }
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	if id := r.Header.Get("X-Request-ID"); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	if prof := r.Header.Get("X-Codec-Profile"); prof != "" {
		req.Header.Set("X-Codec-Profile", prof)
	}
	return l.fwd.RoundTrip(req)
}

// hopByHopHeaders is the RFC 9110 §7.6.1 set: these govern the
// lb↔backend connection, not the client↔lb one, so relaying them
// verbatim can break front-side keep-alive or confuse clients.
var hopByHopHeaders = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// relay copies the backend response through — minus hop-by-hop
// headers (the fixed RFC 9110 set plus anything the backend named in
// its Connection header) — adding the X-Backend header so operators
// can see placement. The body is copied through a pooled buffer: the
// ResponseWriter's ReadFrom would hand it to the connection's, which
// allocates one per response.
func relay(w http.ResponseWriter, resp *http.Response, backend string) {
	defer resp.Body.Close()
	var connNamed map[string]bool
	for _, v := range resp.Header.Values("Connection") {
		for _, f := range strings.Split(v, ",") {
			if f = strings.TrimSpace(f); f != "" {
				if connNamed == nil {
					connNamed = make(map[string]bool)
				}
				connNamed[http.CanonicalHeaderKey(f)] = true
			}
		}
	}
	for k, vs := range resp.Header {
		if hopByHopHeaders[k] || connNamed[k] {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Backend", backend)
	w.WriteHeader(resp.StatusCode)
	buf := relayBufPool.Get().(*[]byte)
	io.CopyBuffer(writerOnly{w}, resp.Body, *buf)
	relayBufPool.Put(buf)
}

// startHealthChecks polls every backend's /readyz on interval,
// flipping ring membership on transitions. Returns a stop function.
func (l *lb) startHealthChecks(interval time.Duration) func() {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				l.checkOnce()
			}
		}
	}()
	return func() { close(done) }
}

// checkOnce probes every backend once and applies the verdicts.
func (l *lb) checkOnce() {
	for _, b := range l.backends {
		ready := l.probeReady(b)
		if l.ring.SetHealthy(b, ready) {
			l.checkFlips.Inc()
			state := "ready"
			if !ready {
				state = "unready"
			}
			log.Printf("ninecd-lb: backend %s is %s (%d on ring)", b, state, len(l.ring.Healthy()))
		}
	}
	l.healthyGauge.Set(int64(len(l.ring.Healthy())))
}

func (l *lb) probeReady(backend string) bool {
	resp, err := l.probe.Get(backend + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batchenc"
	"repro/internal/cachex"
	"repro/internal/codecopt"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/robust"
)

// defaultAssign is the canonical assignment, for deciding whether a
// container's codec can come from the shared cache.
var defaultAssign = core.DefaultAssignment()

// codecTable shares the default-assignment codec of the server's -k
// block size across requests; a Codec is immutable after construction,
// so sharing is free. Any other valid K is built per request, so a
// client cycling through /encode?k= values cannot grow the server.
// Frequency-directed and profile codecs depend on more than K and are
// built per request too.
type codecTable struct {
	defaultK int
	def      *core.Codec // nil when -k is not a valid block size
}

// newCodecTable builds the shared codec for defaultK. An invalid
// defaultK is not fatal here: get reports it on each request for it.
func newCodecTable(defaultK int) *codecTable {
	c, _ := core.New(defaultK)
	return &codecTable{defaultK: defaultK, def: c}
}

// get returns the default-assignment codec for block size k: the
// shared one for the -k default, a fresh build otherwise.
func (t *codecTable) get(k int) (*core.Codec, error) {
	if k == t.defaultK && t.def != nil {
		return t.def, nil
	}
	return core.New(k)
}

// getAssign is get when the assignment is the canonical one, and a
// fresh build otherwise.
func (t *codecTable) getAssign(k int, a core.Assignment) (*core.Codec, error) {
	if a == defaultAssign {
		return t.get(k)
	}
	return core.NewWithAssignment(k, a)
}

// textBufPool recycles the 01X emission buffers of the decode handler.
var textBufPool = sync.Pool{New: func() any { return new([]byte) }}

// decodeSlab is the size at which /decode hands its buffered rows to
// the ResponseWriter: large enough that the per-Write cost vanishes,
// small enough that a large container's response starts streaming
// long before its body has fully arrived.
const decodeSlab = 32 << 10

// config carries the daemon's serving parameters; zero fields take the
// defaults applied by newServer.
type config struct {
	Addr        string
	K           int           // default block size for /encode
	Workers     int           // worker-pool size; 0 = GOMAXPROCS
	QueueWait   time.Duration // how long a request may wait for a worker
	Timeout     time.Duration // per-request deadline
	MaxBody     int64         // request body cap in bytes
	MaxPatterns int           // decode limit (0 = robust default)
	MaxBits     int           // decode limit on stored |T_E| (0 = default)
	Drain       time.Duration // graceful-shutdown budget

	// ShedQueue is the queued-request depth at which new arrivals are
	// refused immediately (0 = Workers*8; see admission.go).
	ShedQueue int

	// Fleet-scale serving (see internal/cachex). CacheOff disables the
	// content-addressed /encode result cache (on by default — both
	// endpoints are pure functions of request bytes and parameters, so
	// caching cannot change a response); CacheBytes bounds its resident
	// size (0 = 256 MiB).
	CacheOff   bool
	CacheBytes int64

	// SLOWindow is the rolling window of the /readyz objectives
	// (0 = 5m); the objectives themselves are the obs defaults: 99.9%
	// availability, 250ms at p99.
	SLOWindow time.Duration

	// Access is the NDJSON access log; nil (the default) disables it.
	Access *obs.AccessLog
}

func (c config) withDefaults() config {
	if c.K == 0 {
		c.K = 8
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 10 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	if c.Drain <= 0 {
		c.Drain = 15 * time.Second
	}
	if c.ShedQueue <= 0 {
		c.ShedQueue = c.Workers * 8
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	return c
}

// limits maps the daemon's flags onto the robust decode policy.
func (c config) limits() robust.DecodeLimits {
	lim := robust.DecodeLimits{MaxPatterns: c.MaxPatterns}
	if c.MaxBits > 0 {
		lim.MaxPayloadBytes = 2 * ((c.MaxBits + 7) / 8)
	}
	return lim
}

// server is the HTTP surface over the 9C codec: /encode turns 01X text
// into a chunked v4 container, /decode turns a v4 or v3 container back
// into 01X text, /healthz and /metrics observe the process. Every
// request runs inside a bounded worker pool with a deadline, and every
// decoder failure maps onto a status code by its robust taxonomy
// class — hostile input gets a 4xx, never a crash.
type server struct {
	cfg    config
	reg    *obs.Registry
	sem    chan struct{}
	prio   chan struct{} // extra slots for small /decode (admission.go)
	mux    *http.ServeMux
	traces *obs.TraceBuffer
	slo    *obs.SLOTracker
	rc     *obs.RuntimeCollector
	access *obs.AccessLog
	cache  *cachex.Cache     // content-addressed /encode results; nil when off
	enc    *batchenc.Encoder // the encode-and-frame step

	profiles *codecopt.Store // resident tuned-codec profiles (profiles.go)
	codecs   *codecTable

	draining atomic.Bool // set by StartDrain; flips /readyz to 503
	queued   *obs.Gauge  // requests waiting for a worker slot
}

// traceRecent/traceSlowest size the /debug/traces retention: bounded,
// so trace memory never grows with traffic.
const (
	traceRecent  = 64
	traceSlowest = 32
)

// newServer builds the handler; it is http.Handler so tests drive it
// through httptest without binding a port.
func newServer(cfg config, reg *obs.Registry) *server {
	cfg = cfg.withDefaults()
	s := &server{
		cfg:    cfg,
		reg:    reg,
		sem:    make(chan struct{}, cfg.Workers),
		mux:    http.NewServeMux(),
		traces: obs.NewTraceBuffer(traceRecent, traceSlowest),
		slo:    obs.NewSLOTracker(obs.SLOConfig{Window: cfg.SLOWindow}),
		rc:     obs.NewRuntimeCollector(reg),
		access: cfg.Access,
	}
	s.prio = make(chan struct{}, max(1, cfg.Workers/4))
	s.queued = reg.Gauge("ninecd.queued")
	if !cfg.CacheOff {
		s.cache = cachex.New(cachex.Config{
			MaxBytes: cfg.CacheBytes,
			Size:     encodeResultSize,
			Registry: reg,
		})
	}
	// Tuned-codec profiles arrive via POST /train or POST /profiles
	// and are selected per /encode with the X-Codec-Profile header.
	s.profiles = codecopt.NewStore(codecopt.DefaultStoreCap, reg)
	s.codecs = newCodecTable(cfg.K)
	s.enc = batchenc.New(batchenc.Config{Codec: s.codecs.get})
	s.mux.HandleFunc("POST /encode", s.instrument("encode", true, s.guard("encode", s.handleEncode)))
	s.mux.HandleFunc("POST /decode", s.instrument("decode", true, s.guard("decode", s.handleDecode)))
	// Control plane: training is heavy but rare, so it rides the worker
	// pool and deadline (guard) without charging the serving SLO
	// (instrument's false).
	s.mux.HandleFunc("POST /train", s.instrument("train", false, s.guard("train", s.handleTrain)))
	s.mux.HandleFunc("POST /profiles", s.instrument("profile_install", false, s.guard("profile_install", s.handleProfileInstall)))
	s.mux.HandleFunc("GET /profiles/{id}", s.instrument("profile_get", false, s.guard("profile_get", s.handleProfileGet)))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", false, s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", false, s.handleMetricsProm))
	s.mux.HandleFunc("GET /debug/traces", s.instrument("debug_traces", false, s.handleDebugTraces))
	return s
}

// ServeHTTP assigns the request its trace ID before routing: an
// inbound X-Request-ID is honored when printable, a fresh ID is
// generated otherwise, and either way the ID is echoed on the response
// and carried through the request context into every span and log.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := sanitizeRequestID(r.Header.Get("X-Request-ID"))
	if id == "" {
		id = obs.NewTraceID()
	}
	w.Header().Set("X-Request-ID", id)
	s.mux.ServeHTTP(w, r.WithContext(obs.ContextWithTraceID(r.Context(), id)))
}

// statusFor maps a handler error onto its status code: over-limit and
// over-size requests are 413, a saturated pool 429 (handled in guard),
// a missed deadline 503, a client that hung up mid-request 408 (as
// admit answers one that hangs up while queued), and every other
// classified decode fault — corrupt, truncated, checksum — plus
// malformed request text is 400.
func statusFor(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe), errors.Is(err, robust.ErrLimitExceeded):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	case errors.Is(err, errProfileUnknown):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// errClass labels an error for metrics and the X-Error-Class header.
func errClass(err error) string {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return "too_large"
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	if errors.Is(err, context.Canceled) {
		return "client_gone"
	}
	if errors.Is(err, errProfileUnknown) {
		return "profile_unknown"
	}
	if c := robust.Classify(err); c != "" {
		return c
	}
	return "bad_request"
}

// guard wraps a handler with the serving contract: panic recovery (a
// recovered panic is a 500 and a counter bump, never a dead process),
// adaptive admission (shed/saturation 429s with an honest Retry-After —
// see admission.go), the per-request deadline, and fault accounting.
// Requests and latency are instrument's: ninecd.http.<route>.requests
// and the root span's span.ninecd.http.<route>.
func (s *server) guard(name string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	// Resolved once per route, as in instrument, so the success path
	// never takes the registry map lock.
	inflight := s.reg.Gauge("ninecd.inflight")
	prioLane := s.reg.Counter("ninecd." + name + ".prio_lane")
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.reg.Counter("ninecd." + name + ".panics").Inc()
				// The full panic value and stack go to telemetry only:
				// recovered values can carry internal state (paths,
				// addresses, config) that untrusted callers must never
				// see, so the response body stays generic.
				s.reg.Emit("panic", "ninecd."+name, map[string]any{
					"value": fmt.Sprint(v),
					"stack": string(debug.Stack()),
				})
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()

		release, ok := s.admit(name, prioLane, w, r)
		if !ok {
			return
		}
		defer release()
		inflight.Add(1)
		defer inflight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		if err := h(w, r.WithContext(ctx)); err != nil {
			class := errClass(err)
			if info := reqInfoFrom(r.Context()); info != nil {
				info.errClass = class
			}
			s.reg.Counter("ninecd." + name + ".fault." + class).Inc()
			w.Header().Set("X-Error-Class", class)
			http.Error(w, err.Error(), statusFor(err))
		}
	}
}

// encodeResultSize charges a cached encode result for the memory its
// container holds (its capacity; batchenc allocates it exact-size) plus
// the struct's own fields.
func encodeResultSize(v any) int64 {
	return int64(cap(v.(batchenc.Result).Container)) + 64
}

// bodyBufPool recycles the /encode body buffers; a request body must
// be fully resident to be content-addressed. Buffers grown past
// bodyBufPoolMax are dropped on return instead of pooled: MaxBody
// defaults to tens of MiB, and pooling at the high-water mark would
// pin one burst's worth of max-size buffers long after the burst.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const bodyBufPoolMax = 1 << 20

func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= bodyBufPoolMax {
		bodyBufPool.Put(buf)
	}
}

// handleEncode reads 01X text from the request body and responds with
// a chunked v4 container. Query parameters: k (block size, default the
// daemon's -k), fd (frequency-directed assignment, two-pass), name
// (set name stored in the container). An X-Codec-Profile header
// selects a resident tuned profile instead — the profile's block size,
// fill, and codeword assignment override k and fd entirely, and the
// resolved ID is echoed back on the response. An unknown profile is a
// 404 (class profile_unknown): install it via POST /profiles first.
//
// The response is a pure function of (body, k, fd, name, profile), so unless
// -cache=off the handler first consults the content-addressed cache:
// a resident result answers immediately (X-Cache: hit), a concurrent
// identical request shares the in-flight encode (X-Cache: coalesced),
// and only a genuinely new request runs the codec (X-Cache: miss).
// A failed encode is never cached — errors propagate to this caller
// and any coalesced followers, leaving the key clean. The exception is
// the leader's own cancellation (its client hung up, its deadline
// fired): cachex.Do shields followers from that by re-running the
// encode under the follower's context, so a chaos-killed leader never
// turns an unrelated valid request into a terminal 4xx.
func (s *server) handleEncode(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	k := s.cfg.K
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad k %q: %w", v, err)
		}
		k = n
	}
	fd := q.Get("fd") != ""
	name := q.Get("name")
	if name == "" {
		name = "request"
	}
	prof, profID, err := s.resolveProfile(r)
	if err != nil {
		return err
	}
	if prof != nil {
		// The profile owns the codec axes; normalize the overridden
		// query parameters so equivalent requests share a cache key.
		k, fd = prof.K, false
		w.Header().Set("X-Codec-Profile", profID)
	}

	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer putBodyBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)); err != nil {
		return err
	}
	body := buf.Bytes()

	encode := func() (batchenc.Result, error) {
		return s.enc.Encode(r.Context(), batchenc.Request{Text: body, K: k, FD: fd, Name: name, Profile: prof})
	}

	var res batchenc.Result
	if s.cache == nil {
		var err error
		if res, err = encode(); err != nil {
			return err
		}
	} else {
		// Every parameter that shapes the response bytes is keyed —
		// name because it is stored inside the container, the profile ID
		// because a tuned encode of the same body is different bytes out
		// (see cachex.EncodeParams for the collision this prevents).
		key := cachex.EncodeParams{K: k, FD: fd, Name: name, Profile: profID}.Key(body)
		v, outcome, err := s.cache.Do(r.Context(), key, func() (any, error) { return encode() })
		if err != nil {
			return err
		}
		res = v.(batchenc.Result)
		w.Header().Set("X-Cache", outcome.String())
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Patterns", strconv.Itoa(res.Patterns))
	w.Header().Set("X-Compressed-Bits", strconv.Itoa(res.CompressedBits))
	// The response is committed: a failed write means the client went
	// away, and there is nothing left to report to it.
	_, _ = w.Write(res.Container)
	return nil
}

// handleDecode reads a container from the request body and streams
// 01X text back, one line per pattern, with the set name in the
// X-Set-Name header. Both container versions feed the same
// StreamDecoder loop (see openContainer), so the working set beyond
// the source stays O(pattern).
func (s *server) handleDecode(w http.ResponseWriter, r *http.Request) error {
	sp := obs.SpanCtx(r.Context(), "ninecd.decode.stream")
	defer sp.End()
	src, h, err := s.openContainer(w, bufio.NewReader(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)))
	if err != nil {
		return err
	}
	if h.Width == 0 {
		// A bare cube of zero bits: an empty but valid container.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		return nil
	}
	cdc, err := s.codecs.getAssign(h.K, h.Assign)
	if err != nil {
		return fmt.Errorf("%w: %v", robust.ErrCorrupt, err)
	}
	dec, err := cdc.NewStreamDecoder(src, h.Width, s.cfg.limits())
	if err != nil {
		return err
	}

	// The first pattern decodes before any byte is written, so header
	// faults still map onto a status code. After that the stream is
	// committed: a later fault terminates the body with a '#' comment
	// the 01X parser ignores-but-a-human sees, plus the fault counter.
	// Rows are decoded straight to text into one pooled buffer, which
	// goes out in slabs of at least decodeSlab bytes.
	bufp := textBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	defer func() { *bufp = buf; textBufPool.Put(bufp) }()
	started := false
	ctx := r.Context()
	for {
		if err := ctx.Err(); err != nil {
			if !started {
				return err
			}
			buf = fmt.Appendf(buf, "# decode aborted: %v\n", err)
			break
		}
		next, err := dec.AppendText(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !started {
				return err
			}
			s.reg.Counter("ninecd.decode.fault." + errClass(err)).Inc()
			buf = fmt.Appendf(buf, "# decode aborted after %d patterns: %v\n", dec.Patterns(), err)
			break
		}
		if !started {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Header().Set("X-Set-Name", h.Name)
			started = true
		}
		if buf = append(next, '\n'); len(buf) >= decodeSlab {
			if _, err := w.Write(buf); err != nil {
				return nil // client went away; nothing useful left to do
			}
			buf = buf[:0]
		}
	}
	if !started {
		// Zero patterns: an empty but valid container.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	// As above, a failed write means the client went away: nothing
	// left to report to it.
	_, _ = w.Write(buf)
	return nil
}

// openContainer returns a container body as a source of verified
// stream segments, plus its header. A v4 body is read chunk by chunk
// as it arrives: each chunk is CRC-verified and its patterns emitted
// before the next is read, so the response starts before the body has
// fully arrived. A v3 body carries one payload CRC at its end, so it
// is read and verified whole under the same limits, then replayed as
// a single segment; a bare-cube v3 container becomes one row of all
// its bits.
func (s *server) openContainer(w http.ResponseWriter, body *bufio.Reader) (core.StreamSource, container.StreamHeader, error) {
	magic, err := body.Peek(4)
	if err != nil {
		return nil, container.StreamHeader{}, fmt.Errorf("container magic: %w: %v", robust.ErrTruncated, err)
	}
	if string(magic) == container.Magic4 {
		// The decode keeps reading the request body after it starts
		// writing the response; without full duplex an HTTP/1.x server
		// closes the body at the first write, truncating any container
		// larger than one response buffer. Best effort: where
		// unsupported, the decode degrades to the pre-duplex behavior.
		http.NewResponseController(w).EnableFullDuplex()
		chr, err := container.NewChunkReader(body, s.cfg.limits())
		if err != nil {
			return nil, container.StreamHeader{}, err
		}
		return chr, chr.Header(), nil
	}
	res, _, err := container.ReadWithOptions(body, container.Options{Limits: s.cfg.limits()})
	if err != nil {
		return nil, container.StreamHeader{}, err
	}
	h := container.StreamHeader{K: res.K, Width: res.Width, Assign: res.Assign, Name: res.Name}
	if h.Width == 0 {
		h.Width = res.OrigBits
	}
	return core.NewCubeSource(res.Stream), h, nil
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

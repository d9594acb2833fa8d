// Command ninecd serves the 9C codec over HTTP: POST 01X text to
// /encode and get a chunked v4 container back, POST any container
// version to /decode and get 01X text back, with a full observability
// surface for operations.
//
// Usage:
//
//	ninecd -addr :9314                    # serve on :9314
//	ninecd -k 12 -timeout 10s             # default block size, deadline
//	ninecd -workers 4 -queue-wait 2s      # pool size and admission wait
//	ninecd -max-body 16777216             # request body cap (bytes)
//	ninecd -max-patterns 4096 -max-bits N # decode limits (robust policy)
//	ninecd -trace trace.ndjson            # structured span events
//	ninecd -access-log access.ndjson      # NDJSON access log
//	ninecd -slo-window 5m                 # /readyz objective window
//	ninecd -shed-queue 64                 # queue depth that sheds arrivals
//	ninecd -cache=false -cache-bytes 268435456  # /encode result cache
//
// Endpoints:
//
//	POST /encode?k=8&fd=1&name=s          # 01X text -> v4 container
//	POST /decode                          # container (v1-v4) -> 01X text
//	POST /train?k=8&fill=none             # 01X corpus -> tuned codec profile, installed
//	POST /profiles                        # install a profile by canonical text
//	GET  /profiles/{id}                   # fetch a resident profile's canonical text
//	GET  /healthz                         # liveness
//	GET  /readyz                          # SLO-backed readiness (503 on budget burn)
//	GET  /metrics                         # Prometheus text exposition
//	GET  /debug/traces                    # recent + slowest request traces
//
// /encode honors an X-Codec-Profile header naming a resident profile
// ID (the sha256 of its canonical encoding): the tuned block size,
// fill, and codeword assignment replace k/fd for that request, and the
// ID is echoed on the response. Unknown profiles are 404.
//
// Every response carries an X-Request-ID header (inbound value echoed
// when printable, generated otherwise); the same ID threads through
// spans, the access log, and /debug/traces.
//
// Status codes: 400 for corrupt/truncated/checksum-failed input, 413
// when a request or its decode limits are exceeded, 429 when admission
// sheds load (queue depth) or the worker pool stays saturated past
// -queue-wait — always with a Retry-After derived from live queue
// depth and SLO burn, clamped to [1,30]s — 408 (class client_gone)
// when the client hangs up before the response starts, 503 when the
// per-request deadline expires, 500 only for a recovered panic.
// SIGTERM/SIGINT drain gracefully: /readyz flips to 503 immediately,
// in-flight requests finish (up to -drain), new connections are
// refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cachex"
	"repro/internal/obs"
	"repro/internal/robust"
)

func main() { os.Exit(realMain(os.Args[1:])) }

// realMain is main minus os.Exit so tests can drive it, with a
// last-resort recover: a bug escaping every handler guard still exits
// with a classified one-line message instead of a raw stack trace.
func realMain(args []string) (code int) {
	defer func() {
		if v := recover(); v != nil {
			msg := fmt.Sprintf("%v", v)
			if err, ok := v.(error); ok && robust.IsClassified(err) {
				msg = fmt.Sprintf("%s fault: %v", robust.Classify(err), err)
			}
			fmt.Fprintf(os.Stderr, "ninecd: internal error: %s\n", msg)
			code = 2
		}
	}()

	var cfg config
	var trace, accessLog string
	cacheOn := true
	fs := flag.NewFlagSet("ninecd", flag.ContinueOnError)
	fs.BoolVar(&cacheOn, "cache", true, "content-addressed /encode result cache (-cache=off via -cache=false)")
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", 0, "result-cache resident bound in bytes (0 = 256 MiB)")
	fs.StringVar(&cfg.Addr, "addr", "localhost:9314", "listen address")
	fs.IntVar(&cfg.K, "k", 8, "default block size K for /encode (even, >= 2)")
	fs.IntVar(&cfg.Workers, "workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.QueueWait, "queue-wait", 10*time.Second, "how long a request may wait for a worker before 429")
	fs.DurationVar(&cfg.Timeout, "timeout", 30*time.Second, "per-request deadline")
	fs.Int64Var(&cfg.MaxBody, "max-body", 64<<20, "request body cap in bytes")
	fs.IntVar(&cfg.MaxPatterns, "max-patterns", 0, "reject containers claiming more patterns (0 = default limit)")
	fs.IntVar(&cfg.MaxBits, "max-bits", 0, "reject containers whose stored stream exceeds this many bits (0 = default limit)")
	fs.DurationVar(&cfg.Drain, "drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	fs.IntVar(&cfg.ShedQueue, "shed-queue", 0, "queued-request depth that sheds new arrivals with 429 (0 = workers*8)")
	fs.StringVar(&trace, "trace", "", "append structured JSON trace events to this file")
	fs.StringVar(&accessLog, "access-log", "", "append an NDJSON access-log line per request to this file")
	fs.DurationVar(&cfg.SLOWindow, "slo-window", 0, "rolling SLO window for /readyz (0 = 5m)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.CacheOff = !cacheOn
	if !cfg.CacheOff {
		// The cache key is a per-process AES-GMAC tag. Build its MAC
		// now: a process that cannot (GCM is refused under
		// GODEBUG=fips140=only) exits here, not with a 500 per /encode.
		if err := cachex.CheckKey(); err != nil {
			fmt.Fprintln(os.Stderr, "ninecd: cache:", err)
			return 1
		}
	}

	// The daemon always runs with telemetry on: /metrics serves the
	// registry snapshot, and library spans/counters feed it for free.
	reg := obs.NewRegistry()
	if trace != "" {
		f, err := os.Create(trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ninecd:", err)
			return 1
		}
		defer f.Close()
		reg.SetSink(obs.NewJSONSink(f))
	}
	obs.Enable(reg)
	defer obs.Disable()

	if accessLog != "" {
		f, err := os.OpenFile(accessLog, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ninecd:", err)
			return 1
		}
		defer f.Close()
		cfg.Access = obs.NewAccessLog(f)
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninecd:", err)
		return 1
	}
	log.Printf("ninecd: listening on %s", ln.Addr())

	srv := newServer(cfg, reg)
	// Background runtime sampling keeps GC/heap/scheduler gauges fresh
	// even between scrapes (scrapes also sample, so this is a floor).
	stopRC := srv.rc.Start(5 * time.Second)
	defer stopRC()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, ln, srv, cfg.Drain); err != nil {
		fmt.Fprintln(os.Stderr, "ninecd:", err)
		return 1
	}
	log.Printf("ninecd: drained, bye")
	return 0
}

// serve runs the HTTP server on ln until ctx is cancelled (SIGTERM /
// SIGINT in production), then drains: the listener closes immediately,
// in-flight requests get up to drain to finish. Split from realMain so
// the shutdown path is testable without signals or real ports.
func serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness before Shutdown closes the listener: a probe that
	// races the drain must see 503, not a connection refused it may
	// misread as a flapping instance.
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

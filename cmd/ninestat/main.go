// Command ninestat is a top-style live console for a running ninecd:
// it polls GET /metrics (the Prometheus text exposition), computes
// per-interval rates and latency quantiles from consecutive scrapes,
// and redraws a single-screen view — req/s by route and status class,
// p50/p95/p99 latency, inflight requests, SLO burn, and the runtime's
// GC/heap/scheduler health.
//
// Usage:
//
//	ninestat                              # watch localhost:9314, 2s refresh
//	ninestat -addr host:9314 -interval 1s # elsewhere, faster
//	ninestat -once                        # two scrapes, one JSON summary
//
// -once scrapes twice (one -interval apart) and emits a single JSON
// summary on stdout — the scriptable mode for smoke tests and CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, out *os.File) int {
	var (
		addr     string
		interval time.Duration
		once     bool
	)
	fs := flag.NewFlagSet("ninestat", flag.ContinueOnError)
	fs.StringVar(&addr, "addr", "localhost:9314", "ninecd address (host:port or full URL)")
	fs.DurationVar(&interval, "interval", 2*time.Second, "scrape interval")
	fs.BoolVar(&once, "once", false, "scrape twice, print one JSON summary, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/metrics"

	client := &http.Client{Timeout: 10 * time.Second}
	prev, err := scrapeOnce(client, url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninestat:", err)
		return 1
	}

	if once {
		time.Sleep(interval)
		cur, err := scrapeOnce(client, url)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ninestat:", err)
			return 1
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summarize(addr, cur, prev)); err != nil {
			fmt.Fprintln(os.Stderr, "ninestat:", err)
			return 1
		}
		return 0
	}

	for {
		time.Sleep(interval)
		cur, err := scrapeOnce(client, url)
		if err != nil {
			// Transient scrape failures (daemon restarting, network blip)
			// keep the console alive; the next good scrape re-anchors.
			fmt.Fprintf(os.Stderr, "ninestat: scrape: %v\n", err)
			continue
		}
		render(out, summarize(addr, cur, prev), true)
		prev = cur
	}
}

// scrape is one parsed exposition and the time it was taken.
type scrape struct {
	at time.Time
	*obs.PromScrape
}

// scrapeOnce fetches and parses one exposition.
func scrapeOnce(client *http.Client, url string) (*scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	at := time.Now()
	s, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, err
	}
	return &scrape{at: at, PromScrape: s}, nil
}

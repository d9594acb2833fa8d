package inject

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ProxyConfig configures the chaos TCP proxy. Probabilities are per
// connection in [0,1]; a zero config is a transparent relay. Like
// every other mutation in this package, chaos decisions are a pure
// function of (Seed, connection index): replaying the same traffic in
// the same connection order reproduces the same faults.
type ProxyConfig struct {
	// Seed determines every per-connection chaos decision.
	Seed int64
	// Latency is added once per direction before the first byte flows.
	Latency time.Duration
	// ResetProb hard-resets the connection (RST, not FIN) after a
	// seeded number of downstream body bytes — the classic LB-restart
	// failure a retrying client must absorb.
	ResetProb float64
	// SlowLorisProb drips the connection through 64-byte chunks,
	// slowLorisDelay apart, modeling a pathologically slow peer.
	SlowLorisProb float64
}

// slowLorisDelay is the pause after each dripped slow-loris chunk.
const slowLorisDelay = 2 * time.Millisecond

// ProxyStats counts what the proxy did, for reports and assertions.
type ProxyStats struct {
	Conns     int64 `json:"conns"`
	Resets    int64 `json:"resets"`
	SlowLoris int64 `json:"slow_loris"`
	BytesUp   int64 `json:"bytes_up"`   // client -> target
	BytesDown int64 `json:"bytes_down"` // target -> client
}

// connPlan is the seeded chaos verdict for one connection. All draws
// happen up front in a fixed order so the plan for connection i under
// seed s is stable regardless of traffic timing.
type connPlan struct {
	reset   bool
	resetAt int64 // downstream byte offset
	slow    bool
}

// Proxy is a seeded, replayable TCP chaos proxy in front of one
// target address. It listens on a loopback port (Addr) and forwards
// every accepted connection, applying the connection's seeded plan.
// Close stops the listener and severs every live connection.
type Proxy struct {
	target string
	cfg    ProxyConfig
	ln     net.Listener

	seq    atomic.Int64
	closed atomic.Bool
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	nconns, resets, slow, up, down atomic.Int64
}

// NewProxy starts a chaos proxy on an ephemeral loopback port in
// front of target ("host:port").
func NewProxy(target string, cfg ProxyConfig) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("inject: proxy listen: %w", err)
	}
	p := &Proxy{target: target, cfg: cfg, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address ("127.0.0.1:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats snapshots the chaos counters.
func (p *Proxy) Stats() ProxyStats {
	return ProxyStats{
		Conns:     p.nconns.Load(),
		Resets:    p.resets.Load(),
		SlowLoris: p.slow.Load(),
		BytesUp:   p.up.Load(),
		BytesDown: p.down.Load(),
	}
}

// Close stops accepting, severs every live connection, and waits for
// the pumps to drain. Idempotent.
func (p *Proxy) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// plan draws the chaos verdict for connection id. Draw order is fixed;
// adding a knob must append draws, never reorder them, or recorded
// seeds stop replaying.
func (p *Proxy) plan(id int64) connPlan {
	const mix = int64(-0x61c8864680b583eb) // golden-ratio mixer (0x9E37…15 as int64)
	rng := rand.New(rand.NewSource(p.cfg.Seed ^ (id * mix)))
	var cp connPlan
	cp.reset = rng.Float64() < p.cfg.ResetProb
	cp.resetAt = rng.Int63n(4096)
	cp.slow = rng.Float64() < p.cfg.SlowLorisProb
	return cp
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		id := p.seq.Add(1)
		p.nconns.Add(1)
		p.wg.Add(1)
		go p.handle(conn, p.plan(id))
	}
}

// track registers a conn for Close teardown; the returned func
// unregisters it.
func (p *Proxy) track(c net.Conn) func() {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
	}
}

func (p *Proxy) handle(client net.Conn, cp connPlan) {
	defer p.wg.Done()
	defer client.Close()
	untrackC := p.track(client)
	defer untrackC()

	target, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return
	}
	defer target.Close()
	untrackT := p.track(target)
	defer untrackT()

	if cp.slow {
		p.slow.Add(1)
	}
	var once sync.Once
	sever := func(rst bool) {
		once.Do(func() {
			if rst {
				// SetLinger(0) turns Close into an RST: the client sees
				// "connection reset by peer", not a clean EOF.
				if tc, ok := client.(*net.TCPConn); ok {
					tc.SetLinger(0)
				}
			}
			client.Close()
			target.Close()
		})
	}

	var pumps sync.WaitGroup
	pumps.Add(2)
	// Upstream: client -> target. Latency and slow-loris apply (a
	// dripped upload is a slow-loris read from the daemon's point of
	// view); the reset targets the downstream.
	go func() {
		defer pumps.Done()
		p.pump(target, client, cp.slow, -1, &p.up, sever)
	}()
	// Downstream: target -> client. All faults apply.
	resetAt := int64(-1)
	if cp.reset {
		resetAt = cp.resetAt
	}
	go func() {
		defer pumps.Done()
		p.pump(client, target, cp.slow, resetAt, &p.down, sever)
	}()
	pumps.Wait()
}

// pump copies src to dst, dripping it when slow. resetAt >= 0 resets
// the pair once that many bytes have flowed; -1 never resets.
func (p *Proxy) pump(dst, src net.Conn, slow bool, resetAt int64, bytes *atomic.Int64, sever func(rst bool)) {
	defer sever(false) // EOF or error on either side ends the pair
	if p.cfg.Latency > 0 {
		time.Sleep(p.cfg.Latency)
	}
	bufSize := 32 * 1024
	if slow {
		bufSize = 64 // drip in tiny chunks
	}
	buf := make([]byte, bufSize)
	var offset int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if resetAt >= 0 && offset+int64(n) >= resetAt {
				if keep := resetAt - offset; keep > 0 {
					dst.Write(chunk[:keep])
					bytes.Add(keep)
				}
				p.resets.Add(1)
				sever(true)
				return
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
			bytes.Add(int64(n))
			offset += int64(n)
			if slow {
				time.Sleep(slowLorisDelay)
			}
		}
		if err != nil {
			return
		}
	}
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemons compiles ninecd and ninecd-lb from the repository at
// root into dir.
func buildDaemons(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(os.PathSeparator), "./cmd/ninecd", "./cmd/ninecd-lb")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("building the daemons: %v\n%s", err, out)
	}
	return nil
}

// daemonProcs is the GOMAXPROCS every daemon runs with.
const daemonProcs = 2

// proc is one running daemon.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	stderr chan struct{} // closed once the daemon's stderr reaches EOF
	head   []string      // first lines of stderr, for error reports
}

// spawn starts a daemon and waits for the "listening on ADDR" line its
// log prints once the port is bound.
func spawn(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs))
	// The daemons must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, stderr: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.stderr)
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			if len(p.head) < 20 {
				p.head = append(p.head, line)
			}
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrc <- strings.TrimSuffix(strings.Fields(rest)[0], ","):
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.stderr:
	case <-time.After(30 * time.Second):
	}
	p.stop()
	return nil, fmt.Errorf("%s did not start: %s", filepath.Base(bin), strings.Join(p.head, "; "))
}

// stop sends SIGTERM, waits for the daemon to drain and exit, and kills
// it if it has not within 10 s.
func (p *proc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.stderr:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.stderr
	}
	return p.cmd.Wait()
}

// cpuTicks is utime+stime of a process, in clock ticks (1/100 s; the
// /proc ABI fixes USER_HZ at 100).
func cpuTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return u + s, nil
}

// peakRSSKB is a process's VmHWM in KiB.
func peakRSSKB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fleet is the daemons serving one pass: one ninecd, or two ninecd
// backends behind ninecd-lb.
type fleet struct {
	backends []*proc
	lb       *proc
	url      string
	logs     []string // access-log paths, one per backend, when traced
}

// startFleet boots the workload's daemons with default flags on
// localhost:0. With accessDir set, every backend writes an access log
// there.
func startFleet(binDir string, lb bool, accessDir string) (*fleet, error) {
	f := &fleet{}
	n := 1
	if lb {
		n = 2
	}
	for i := 0; i < n; i++ {
		args := []string{"-addr", "localhost:0"}
		if accessDir != "" {
			log := filepath.Join(accessDir, fmt.Sprintf("access-%d.ndjson", i))
			os.Remove(log)
			args = append(args, "-access-log", log)
			f.logs = append(f.logs, log)
		}
		p, err := spawn(filepath.Join(binDir, "ninecd"), args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, p)
	}
	f.url = "http://" + f.backends[0].addr
	if lb {
		addrs := []string{f.backends[0].addr, f.backends[1].addr}
		p, err := spawn(filepath.Join(binDir, "ninecd-lb"), "-addr", "localhost:0", "-backends", strings.Join(addrs, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.lb = p
		f.url = "http://" + p.addr
	}
	return f, nil
}

func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.backends...)
	if f.lb != nil {
		ps = append(ps, f.lb)
	}
	return ps
}

// stop stops the lb first, so no request reaches a stopped backend.
func (f *fleet) stop() error {
	var errs []error
	ps := f.procs()
	for i := len(ps) - 1; i >= 0; i-- {
		errs = append(errs, ps[i].stop())
	}
	return errors.Join(errs...)
}

// cpuTicks sums utime+stime over every daemon of the fleet.
func (f *fleet) cpuTicks() (int64, error) {
	var t int64
	for _, p := range f.procs() {
		n, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		t += n
	}
	return t, nil
}

// peakRSSKB sums VmHWM over every daemon of the fleet.
func (f *fleet) peakRSSKB() (int64, error) {
	var kb int64
	for _, p := range f.procs() {
		n, err := peakRSSKB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += n
	}
	return kb, nil
}

// scrape reads every backend's /metrics, Prometheus text, into one map
// per backend; histogram series are skipped.
func (f *fleet) scrape(ctx context.Context) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, p := range f.backends {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		m, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func parseProm(r io.Reader) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[name] = x
	}
	return m, sc.Err()
}

// accessEvent is the part of ninecd's access-log line the ledger joins
// on the request ID.
type accessEvent struct {
	Time      int64  `json:"t"`
	Trace     string `json:"trace"`
	Status    int    `json:"status"`
	QueueNs   int64  `json:"queue_wait_ns"`
	HandlerNs int64  `json:"handler_ns"`
}

func readAccessLogs(paths []string) (map[string]accessEvent, error) {
	events := map[string]accessEvent{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var e accessEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			events[e.Trace] = e
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return events, nil
}

package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"io"
	"sync"
	"time"
)

// The shared machine the benchmark runs on changes speed by tens of
// percent over minutes as its other tenants come and go: the daemons'
// CPU time per request moves with it, so the change is in the machine,
// not in scheduling. A pass therefore times a fixed piece of work, built
// from the standard library alone so no change to the program moves it,
// before every boot and after every window, while the daemons are idle.
// The timing metrics are reported at the speed of the machine the
// reference was taken on: a time is divided by the pass's slowdown
// (median probe time / calibRefUS) and a rate multiplied by it.

// calibRefUS is the median probe time on the 2-vCPU machine the rates
// were frozen on, over 36 runs. It sets only the scale of the reported
// numbers.
const calibRefUS = 13800

// probeRounds is how many times each probe goroutine runs the kernel.
const probeRounds = 3

// probeText is the kernel's input: 32 KiB of 01X rows, the same on
// every run.
var probeText = func() []byte {
	b := make([]byte, 32<<10)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = "01XXXXXX"[x%8]
		if i%200 == 199 {
			b[i] = '\n'
		}
	}
	return b
}()

// probeKernel compresses and restores probeText, hashes it and counts
// a sample of its bytes: allocation, branchy compute and table lookups,
// as the daemons' request path has. Its errors are dropped: level 5 is
// valid, a bytes.Buffer write cannot fail, and the reader gets the
// stream the writer just made.
func probeKernel() byte {
	var c bytes.Buffer
	w, _ := flate.NewWriter(&c, 5)
	w.Write(probeText)
	w.Close()
	out, _ := io.ReadAll(flate.NewReader(&c))
	sum := sha256.Sum256(out)
	counts := map[int]int{}
	for i := 0; i < 4096; i++ {
		counts[int(out[i*7%len(out)])*i]++
	}
	return sum[0] + byte(len(counts))
}

// probeHost runs the kernel on conns goroutines, one per vCPU the
// daemons use, and returns the wall time in microseconds.
func probeHost() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < probeRounds; k++ {
				probeKernel()
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

package batchenc

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/tcube"
)

func sampleSet(t *testing.T, patterns, width int, seed int64) *tcube.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < patterns; i++ {
		for j := 0; j < width; j++ {
			b.WriteByte("01X"[rng.Intn(3)])
		}
		b.WriteByte('\n')
	}
	set, err := tcube.Read(fmt.Sprintf("set-%d", seed), strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// reference encodes a request with the plain in-memory encoder — no
// workspace reuse — as the byte-identity oracle.
func reference(t *testing.T, req Request) Result {
	t.Helper()
	cdc, err := core.New(req.K)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cdc.EncodeSet(req.Set)
	if err != nil {
		t.Fatal(err)
	}
	if req.FD {
		cdc, err = core.NewWithAssignment(req.K, core.FrequencyDirected(res.Counts))
		if err != nil {
			t.Fatal(err)
		}
		if res, err = cdc.EncodeSet(req.Set); err != nil {
			t.Fatal(err)
		}
	}
	res.Name = req.Name
	var buf bytes.Buffer
	if err := container.WriteVersion(&buf, res, container.Magic4); err != nil {
		t.Fatal(err)
	}
	return Result{Container: buf.Bytes(), Patterns: res.Patterns, CompressedBits: res.CompressedBits()}
}

// TestDirectPathWhenAlone: a lone request encodes on the caller's
// goroutine, byte-identical to the reference.
func TestDirectPathWhenAlone(t *testing.T) {
	e := New(Config{})
	req := Request{Set: sampleSet(t, 8, 32, 1), K: 8, Name: "solo"}
	got, err := e.Encode(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t, req)
	if !bytes.Equal(got.Container, want.Container) {
		t.Fatal("direct-path container differs from reference")
	}
}

// TestConcurrentJobsByteIdentical runs a concurrent burst and requires
// every job's container to match its individual reference encode
// exactly: pooled workspaces never leak state between requests.
func TestConcurrentJobsByteIdentical(t *testing.T) {
	e := New(Config{})
	const n = 12
	reqs := make([]Request, n)
	for i := range reqs {
		fd := i%3 == 0
		reqs[i] = Request{Set: sampleSet(t, 6, 24, int64(100+i)), K: 8, FD: fd, Name: fmt.Sprintf("burst-%d", i)}
	}
	got := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.Encode(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		want := reference(t, reqs[i])
		if !bytes.Equal(got[i].Container, want.Container) {
			t.Fatalf("job %d container differs from reference", i)
		}
		if got[i].Patterns != want.Patterns || got[i].CompressedBits != want.CompressedBits {
			t.Fatalf("job %d metadata %d/%d, want %d/%d",
				i, got[i].Patterns, got[i].CompressedBits, want.Patterns, want.CompressedBits)
		}
	}
}

// TestCancelledJobSkipped: a job whose context is already dead is not
// encoded and returns the context's error.
func TestCancelledJobSkipped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(Config{}).Encode(ctx, Request{Set: sampleSet(t, 4, 16, 2), K: 8, Name: "dead"})
	if err != context.Canceled {
		t.Fatalf("cancelled job returned %v, want context.Canceled", err)
	}
}

func TestBadBlockSizeSurfacesError(t *testing.T) {
	e := New(Config{})
	_, err := e.Encode(context.Background(), Request{Set: sampleSet(t, 4, 16, 1), K: 3, Name: "bad"})
	if err == nil {
		t.Fatal("odd block size encoded without error")
	}
}

func BenchmarkEncodeDirect(b *testing.B) {
	e := New(Config{})
	set, err := tcube.Read("bench", strings.NewReader(strings.Repeat("0101XX10X1010101\n", 16)))
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Set: set, K: 8, Name: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Encode(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

package cachex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func sizeOf(v any) int64 { return int64(len(v.([]byte))) }

func newTest(maxBytes int64, reg *obs.Registry) *Cache {
	return New(Config{MaxBytes: maxBytes, Size: sizeOf, Registry: reg})
}

func TestKeyOfSeparatesParamsFromBody(t *testing.T) {
	// The params/body boundary must be unambiguous: moving bytes across
	// it has to change the key, or two different requests could share a
	// cached result.
	a := KeyOf([]byte("k=8"), []byte("0101"))
	b := KeyOf([]byte("k=80"), []byte("101"))
	if a == b {
		t.Fatal("params/body boundary shift produced the same key")
	}
	if KeyOf([]byte("k=8"), []byte("0101")) != a {
		t.Fatal("KeyOf is not deterministic")
	}
	if KeyOf([]byte("k=9"), []byte("0101")) == a {
		t.Fatal("param change did not change the key")
	}
	if KeyOf([]byte("k=8"), []byte("0100")) == a {
		t.Fatal("body change did not change the key")
	}
}

func TestGetAddRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTest(1<<20, reg)
	k := KeyOf([]byte("p"), []byte("body"))
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on an empty cache")
	}
	if !c.Add(k, []byte("value")) {
		t.Fatal("Add rejected a small value")
	}
	v, ok := c.Get(k)
	if !ok || !bytes.Equal(v.([]byte), []byte("value")) {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if hits, misses := reg.Counter("ninecd.cache.hit").Value(), reg.Counter("ninecd.cache.miss").Value(); hits != 1 || misses != 1 {
		t.Fatalf("counters hit=%d miss=%d, want 1/1", hits, misses)
	}
	if got := reg.Gauge("ninecd.cache.entries").Value(); got != 1 {
		t.Fatalf("entries gauge %d, want 1", got)
	}
}

// TestHitPathZeroAlloc pins the cache-hit steady state at zero
// allocations: KeyOf plus Get must never touch the heap, or a
// duplicate-heavy replay would feed the GC on every request.
func TestHitPathZeroAlloc(t *testing.T) {
	c := newTest(1<<20, obs.NewRegistry())
	params := []byte("v4|k=8|fd=0|name=corpus-0")
	body := bytes.Repeat([]byte("01X"), 4096)
	k := KeyOf(params, body)
	c.Add(k, bytes.Repeat([]byte{0xAB}, 2048))

	allocs := testing.AllocsPerRun(1000, func() {
		key := KeyOf(params, body)
		if _, ok := c.Get(key); !ok {
			t.Fatal("lost the entry mid-run")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit path allocates %.1f/op, want 0", allocs)
	}
}

func TestEvictionRespectsByteBound(t *testing.T) {
	reg := obs.NewRegistry()
	// One shard's budget is MaxBytes/numShards; build keys that all land
	// in one shard so the LRU order is observable.
	c := newTest(numShards*(3*(1024+entryOverhead)), reg)
	keys := sameShardKeys(t, 5)
	for i, k := range keys {
		c.Add(k, bytes.Repeat([]byte{byte(i)}, 1024))
	}
	// Budget holds 3 entries per shard: the two oldest must be gone.
	for i, k := range keys {
		_, ok := c.Get(k)
		if want := i >= 2; ok != want {
			t.Fatalf("key %d resident=%v, want %v", i, ok, want)
		}
	}
	if got := reg.Counter("ninecd.cache.evicted_bytes").Value(); got != 2*(1024+entryOverhead) {
		t.Fatalf("evicted_bytes = %d, want %d", got, 2*(1024+entryOverhead))
	}
	if c.Bytes() > c.perShard*numShards {
		t.Fatalf("resident %d bytes exceeds bound", c.Bytes())
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := newTest(numShards*(3*(1024+entryOverhead)), obs.NewRegistry())
	keys := sameShardKeys(t, 4)
	for i := 0; i < 3; i++ {
		c.Add(keys[i], bytes.Repeat([]byte{byte(i)}, 1024))
	}
	c.Get(keys[0]) // refresh the oldest; keys[1] becomes LRU
	c.Add(keys[3], bytes.Repeat([]byte{3}, 1024))
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently touched entry was evicted")
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived past the byte bound")
	}
}

func TestOversizeValueRejected(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTest(numShards*1024, reg)
	k := KeyOf([]byte("p"), []byte("big"))
	if c.Add(k, make([]byte, 64<<10)) {
		t.Fatal("value larger than a shard budget was accepted")
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("oversize value resident")
	}
	if got := reg.Counter("ninecd.cache.rejected_oversize").Value(); got != 1 {
		t.Fatalf("rejected_oversize = %d, want 1", got)
	}
}

// sameShardKeys brute-forces n keys whose first byte maps to shard 0.
func sameShardKeys(t *testing.T, n int) []Key {
	t.Helper()
	var keys []Key
	for i := 0; len(keys) < n && i < 1<<20; i++ {
		k := KeyOf([]byte("shard"), []byte(fmt.Sprintf("probe-%d", i)))
		if k[0]&(numShards-1) == 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatal("could not find same-shard keys")
	}
	return keys
}

// TestSingleflightCoalesces proves N concurrent identical requests run
// the compute function exactly once and share its result.
func TestSingleflightCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTest(1<<20, reg)
	k := KeyOf([]byte("p"), []byte("dup"))

	var computes atomic.Int64
	gate := make(chan struct{})
	const workers = 32
	var wg sync.WaitGroup
	results := make([]any, workers)
	outcomes := make([]Outcome, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), k, func() (any, error) {
				computes.Add(1)
				<-gate // hold every follower in the coalesced wait
				return []byte("shared"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], outcomes[i] = v, out
		}(i)
	}
	// Let the followers pile up behind the leader before releasing it.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("ninecd.cache.coalesced").Value() < workers-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	var miss, coal int
	for i := range results {
		if !bytes.Equal(results[i].([]byte), []byte("shared")) {
			t.Fatalf("worker %d got %q", i, results[i])
		}
		switch outcomes[i] {
		case Miss:
			miss++
		case Coalesced:
			coal++
		}
	}
	if miss != 1 || coal != workers-1 {
		t.Fatalf("outcomes: %d miss %d coalesced, want 1/%d", miss, coal, workers-1)
	}
}

// TestFailedComputeCachesNothing: the partial-entry guarantee. A leader
// error reaches every parked follower and leaves the cache empty, so a
// later request re-runs the compute from scratch.
func TestFailedComputeCachesNothing(t *testing.T) {
	c := newTest(1<<20, obs.NewRegistry())
	k := KeyOf([]byte("p"), []byte("doomed"))
	boom := errors.New("encode aborted mid-stream")

	var runs atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(context.Background(), k, func() (any, error) {
				runs.Add(1)
				<-gate
				return nil, boom
			})
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("worker %d error = %v, want the leader's", i, err)
		}
	}
	if c.Len() != 0 {
		t.Fatal("failed compute left a resident entry")
	}
	// The key is not poisoned: the next Do leads a fresh compute.
	v, out, err := c.Do(context.Background(), k, func() (any, error) { return []byte("ok"), nil })
	if err != nil || out != Miss || !bytes.Equal(v.([]byte), []byte("ok")) {
		t.Fatalf("retry after failure: v=%v out=%v err=%v", v, out, err)
	}
}

// TestFollowerContextCancellation: a follower whose context dies leaves
// the wait immediately; the leader still completes and populates the
// cache for everyone after.
func TestFollowerContextCancellation(t *testing.T) {
	c := newTest(1<<20, obs.NewRegistry())
	k := KeyOf([]byte("p"), []byte("slow"))
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(context.Background(), k, func() (any, error) {
			<-gate
			return []byte("late"), nil
		})
	}()
	// Wait until the leader's call is registered.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := c.shardFor(k)
		s.mu.Lock()
		_, inflight := s.calls[k]
		s.mu.Unlock()
		if inflight || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, out, err := c.Do(ctx, k, func() (any, error) { t.Error("follower ran the compute"); return nil, nil })
	if out != Coalesced || !errors.Is(err, context.Canceled) {
		t.Fatalf("follower got out=%v err=%v, want coalesced cancel", out, err)
	}
	close(gate)
	<-leaderDone
	if v, ok := c.Get(k); !ok || !bytes.Equal(v.([]byte), []byte("late")) {
		t.Fatal("leader result did not land in the cache")
	}
}

// TestFollowerNotPoisonedByLeaderCancellation: a leader whose compute
// dies of the leader's own context (client hung up mid-encode) must
// not surface that cancellation to coalesced followers as a terminal
// error — each live follower retries and leads a fresh compute under
// its own function instead.
func TestFollowerNotPoisonedByLeaderCancellation(t *testing.T) {
	c := newTest(1<<20, obs.NewRegistry())
	k := KeyOf([]byte("p"), []byte("leader-dies"))

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := c.Do(leaderCtx, k, func() (any, error) {
			close(leaderStarted)
			<-leaderCtx.Done() // the encode aborts when its request context dies
			return nil, leaderCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader error = %v, want context.Canceled", err)
		}
	}()
	<-leaderStarted

	// The follower parks behind the doomed leader, then its compute must
	// run — proving the leader's cancellation was not shared.
	var followerRuns atomic.Int64
	followerDone := make(chan struct{})
	var v any
	var err error
	go func() {
		defer close(followerDone)
		v, _, err = c.Do(context.Background(), k, func() (any, error) {
			followerRuns.Add(1)
			return []byte("fresh"), nil
		})
	}()
	// Wait until the follower is parked before killing the leader.
	deadline := time.Now().Add(5 * time.Second)
	for c.coalesced.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	<-leaderDone
	<-followerDone

	if err != nil {
		t.Fatalf("follower inherited the leader's failure: %v", err)
	}
	if !bytes.Equal(v.([]byte), []byte("fresh")) || followerRuns.Load() != 1 {
		t.Fatalf("follower got %q after %d runs, want a fresh compute", v, followerRuns.Load())
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("the follower's result did not land in the cache")
	}
}

// TestFollowerOwnCancellationStillSurfaces: the retry above must not
// swallow the follower's own cancellation — when it is the follower's
// context that ends, ctx.Err() comes back as before.
func TestFollowerOwnCancellationStillSurfaces(t *testing.T) {
	c := newTest(1<<20, obs.NewRegistry())
	k := KeyOf([]byte("p"), []byte("own-ctx"))
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), k, func() (any, error) {
			close(started)
			<-gate
			return nil, context.Canceled // leader fails with a ctx-shaped error
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := c.Do(ctx, k, func() (any, error) { t.Error("follower ran the compute"); return nil, nil })
	if out != Coalesced || !errors.Is(err, context.Canceled) {
		t.Fatalf("follower got out=%v err=%v, want its own cancellation", out, err)
	}
}

// TestPanickingComputeDoesNotWedgeKey: a panic in fn must unregister
// the in-flight call and release parked followers with
// ErrComputePanicked — otherwise one panic turns every future
// identical request into a hang on a call that never completes.
func TestPanickingComputeDoesNotWedgeKey(t *testing.T) {
	c := newTest(1<<20, obs.NewRegistry())
	k := KeyOf([]byte("p"), []byte("boom"))

	gate := make(chan struct{})
	followerErr := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader's panic did not propagate")
			}
		}()
		c.Do(context.Background(), k, func() (any, error) {
			close(started)
			<-gate
			panic("encode blew up")
		})
	}()
	<-started
	go func() {
		_, _, err := c.Do(context.Background(), k, func() (any, error) { return nil, nil })
		followerErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.coalesced.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)

	select {
	case err := <-followerErr:
		if !errors.Is(err, ErrComputePanicked) {
			t.Fatalf("parked follower got %v, want ErrComputePanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked follower hung after the leader panicked")
	}

	// The key is clean: a fresh Do leads a new compute, nothing cached.
	if c.Len() != 0 {
		t.Fatal("panicking compute left a resident entry")
	}
	v, out, err := c.Do(context.Background(), k, func() (any, error) { return []byte("ok"), nil })
	if err != nil || out != Miss || !bytes.Equal(v.([]byte), []byte("ok")) {
		t.Fatalf("Do after panic: v=%v out=%v err=%v, want a clean miss", v, out, err)
	}
}

// TestConcurrentMixedWorkload hammers every path under the race
// detector: hits, misses, coalesced waits, and eviction pressure.
func TestConcurrentMixedWorkload(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTest(64<<10, reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := (g*400 + i) % 37
				params := []byte("p")
				body := []byte(fmt.Sprintf("body-%d", id))
				k := KeyOf(params, body)
				want := bytes.Repeat([]byte{byte(id)}, 512)
				v, _, err := c.Do(context.Background(), k, func() (any, error) {
					return bytes.Repeat([]byte{byte(id)}, 512), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(v.([]byte), want) {
					t.Errorf("key %d returned wrong bytes", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() > 64<<10 {
		t.Fatalf("resident %d bytes exceeds the 64KiB bound", c.Bytes())
	}
	total := reg.Counter("ninecd.cache.hit").Value() + reg.Counter("ninecd.cache.miss").Value() + reg.Counter("ninecd.cache.coalesced").Value()
	if total != 8*400 {
		t.Fatalf("hit+miss+coalesced = %d, want %d", total, 8*400)
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c := newTest(1<<20, nil)
	params := []byte("v4|k=8|fd=0|name=bench")
	body := bytes.Repeat([]byte("01X"), 4096)
	k := KeyOf(params, body)
	c.Add(k, bytes.Repeat([]byte{1}, 4096))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := KeyOf(params, body)
		if _, ok := c.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}

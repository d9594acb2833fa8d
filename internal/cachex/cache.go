// Package cachex is the content-addressed result cache behind the
// fleet-scale ninecd serving path. Both 9C endpoints are pure
// functions of (input bytes, codec parameters) — the paper's encoding
// is deterministic, and corpus-tuned profiles share the property — so
// a key over the request fully identifies its response and caching is
// correctness-free: a hit is byte-identical to a fresh encode by
// construction.
//
// The cache is four mechanisms in one type:
//
//   - a sharded-mutex LRU bounded by bytes: entries spread across
//     fixed shards by their key, each shard owning an intrusive
//     recency list, so concurrent hits on different shards never
//     contend on one lock;
//   - an admission doorkeeper, as in TinyLFU (Einziger, Friedman,
//     Manes, ACM ToS 2017): each shard keeps a fixed direct-mapped
//     table of the tags of recently missed keys, and a computed result
//     is stored only when its key was already in that table — on its
//     second sighting. Unique traffic therefore runs the compute and
//     answers without ever growing the cache, while a repeated key
//     pays one extra miss before it is resident. A newer tag
//     overwriting an older one in the same slot is the only ageing;
//   - singleflight coalescing: N concurrent requests for the same key
//     run the encode once — the leader computes, followers park on the
//     call's done channel and share the result (or the error; a failed
//     call caches nothing). Followers of one leader are one sighting;
//   - telemetry: ninecd.cache.hit / .miss / .coalesced /
//     .first_sighting / .evicted_bytes counters and bytes/entries
//     gauges, nil-safe so a cache built without a registry costs
//     nothing extra.
//
// The key (key.go) is a keyed MAC, not a digest: one AES-GMAC pass
// over (params, body) under an AES key drawn from crypto/rand once per
// process. GHASH runs at memory speed on AES-NI and PCLMULQDQ hardware,
// and a secret key keeps collisions out of an attacker's reach with no
// stored copy of the body to compare against — an entry holds only its
// result. KeyOf documents the collision bound.
//
// The hit path — KeyOf plus Get — allocates nothing (pinned by
// AllocsPerRun in the tests), which is what lets a duplicate-heavy
// replay ride the cache at transport speed without feeding the GC.
//
// Values are immutable once inserted: Get returns the stored value
// itself, not a copy, and callers must never mutate what they are
// handed. Entries enter the cache only as one complete value under the
// shard lock — there is no partially written state to observe, so a
// truncated or half-built result can never be served (the inject
// chaos-proxy tests assert the downstream lenient readers cope even if
// transport mangles a served entry afterwards).
package cachex

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"

	"repro/internal/obs"
)

// ErrComputePanicked is the error coalesced followers receive when the
// leader's compute function panicked. The panic itself propagates to
// the leader's caller (the serving layer recovers and reports it); the
// followers get this sentinel instead of hanging on a call that will
// never complete.
var ErrComputePanicked = errors.New("cachex: compute function panicked")

// numShards fixes the lock striping; a power of two so the shard index
// is a mask over the key's first byte.
const numShards = 16

// doorSlots is the size of each shard's doorkeeper table: 256 slots
// indexed by the key's second byte, so 16 shards hold 4096 recent miss
// tags in 32 KiB. A repeat is admitted if its tag survives until it
// comes back, i.e. fewer than ~256 other distinct keys missed on its
// shard in between (~4096 across the cache).
const doorSlots = 256

// entryOverhead approximates the per-entry bookkeeping (map slot, list
// links, key copy) charged against the byte budget so a cache of many
// tiny values still respects its bound.
const entryOverhead = 128

// Outcome says how Do satisfied a request.
type Outcome int

const (
	// Miss: this caller was the leader and ran the compute function.
	Miss Outcome = iota
	// Hit: the value was already resident.
	Hit
	// Coalesced: another caller was already computing the same key and
	// this one shared its result.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Config assembles a Cache.
type Config struct {
	// MaxBytes bounds the sum of value sizes plus per-entry overhead.
	// Required > 0.
	MaxBytes int64
	// Size reports a value's resident size in bytes. Required.
	Size func(v any) int64
	// Registry receives the cache telemetry; nil falls back to
	// obs.Active() at construction time (nil-safe either way).
	Registry *obs.Registry
}

// Cache is the sharded content-addressed LRU. Safe for concurrent use.
type Cache struct {
	size     func(any) int64
	perShard int64
	shards   [numShards]shard

	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	firstSeen *obs.Counter
	evicted   *obs.Counter
	rejected  *obs.Counter
	bytesG    *obs.Gauge
	entriesG  *obs.Gauge
}

// entry is one resident value on a shard's intrusive recency list.
type entry struct {
	key        Key
	val        any
	size       int64
	prev, next *entry
}

// call is one in-flight singleflight computation. admit records
// whether the leader found its key in the doorkeeper, i.e. whether a
// successful result is stored.
type call struct {
	done  chan struct{}
	val   any
	err   error
	admit bool
}

type shard struct {
	mu    sync.Mutex
	m     map[Key]*entry
	calls map[Key]*call
	root  entry // sentinel: root.next is MRU, root.prev is LRU
	bytes int64
	door  [doorSlots]uint64 // tags of recently missed keys; 0 is empty
}

// sighted records k in its doorkeeper slot and reports whether the
// slot already held k's tag: whether this miss is at least the key's
// second. The tag is 64 bits of the key other than those that pick the
// shard and the slot, with the low bit forced so no tag reads as an
// empty slot. Caller holds s.mu.
func (s *shard) sighted(k Key) bool {
	tag := binary.LittleEndian.Uint64(k[8:]) | 1
	slot := &s.door[k[1]]
	seen := *slot == tag
	*slot = tag
	return seen
}

// New builds a Cache. It panics on a non-positive byte bound or a nil
// size function — both are programming errors, not runtime conditions.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		panic("cachex: MaxBytes must be positive")
	}
	if cfg.Size == nil {
		panic("cachex: Size function required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Active()
	}
	c := &Cache{
		size:      cfg.Size,
		perShard:  (cfg.MaxBytes + numShards - 1) / numShards,
		hits:      reg.Counter("ninecd.cache.hit"),
		misses:    reg.Counter("ninecd.cache.miss"),
		coalesced: reg.Counter("ninecd.cache.coalesced"),
		firstSeen: reg.Counter("ninecd.cache.first_sighting"),
		evicted:   reg.Counter("ninecd.cache.evicted_bytes"),
		rejected:  reg.Counter("ninecd.cache.rejected_oversize"),
		bytesG:    reg.Gauge("ninecd.cache.bytes"),
		entriesG:  reg.Gauge("ninecd.cache.entries"),
	}
	reg.Describe("ninecd.cache.hit", "requests served from the content-addressed result cache")
	reg.Describe("ninecd.cache.miss", "requests that ran the encode because no entry was resident")
	reg.Describe("ninecd.cache.coalesced", "requests that shared another in-flight identical computation")
	reg.Describe("ninecd.cache.first_sighting", "computed results not stored because their key missed for the first time")
	reg.Describe("ninecd.cache.evicted_bytes", "bytes evicted from the result cache to stay within its bound")
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[Key]*entry)
		s.calls = make(map[Key]*call)
		s.root.next = &s.root
		s.root.prev = &s.root
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard { return &c.shards[k[0]&(numShards-1)] }

// moveToFront re-links e as the shard's most recently used entry.
func (s *shard) moveToFront(e *entry) {
	if s.root.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev = &s.root
	e.next = s.root.next
	s.root.next.prev = e
	s.root.next = e
}

// Get returns the resident value for k. The fast path is one shard
// lock, one map probe, and a list re-link — zero allocations.
func (c *Cache) Get(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	c.hits.Inc()
	return v, true
}

// Add inserts (or replaces) the value for k and evicts LRU entries
// until the shard respects its byte budget. A value larger than a
// whole shard's budget is rejected rather than cycling the entire
// shard through eviction for one uncacheable result.
func (c *Cache) Add(k Key, v any) bool {
	size := c.size(v) + entryOverhead
	if size > c.perShard {
		c.rejected.Inc()
		return false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.m[k]; ok {
		s.bytes += size - e.size
		c.bytesG.Add(size - e.size)
		e.val, e.size = v, size
		s.moveToFront(e)
	} else {
		e = &entry{key: k, val: v, size: size, prev: &s.root, next: s.root.next}
		s.root.next.prev = e
		s.root.next = e
		s.m[k] = e
		s.bytes += size
		c.bytesG.Add(size)
		c.entriesG.Add(1)
	}
	for s.bytes > c.perShard {
		lru := s.root.prev
		if lru == &s.root {
			break
		}
		lru.prev.next = &s.root
		s.root.prev = lru.prev
		delete(s.m, lru.key)
		s.bytes -= lru.size
		c.bytesG.Add(-lru.size)
		c.entriesG.Add(-1)
		c.evicted.Add(lru.size)
	}
	s.mu.Unlock()
	return true
}

// Do returns the value for k, computing it at most once across
// concurrent callers: a resident value is a Hit, an in-flight
// identical computation is joined (Coalesced), and otherwise this
// caller leads the computation (Miss). A leader whose key is already
// in the shard's doorkeeper — its second or later miss — inserts a
// successful result for everyone after; a first sighting only records
// the key's tag, answers its caller and followers, and stores nothing
// (counted as ninecd.cache.first_sighting).
//
// The leader runs fn under its own context; a follower whose ctx ends
// first abandons the wait (the leader keeps computing — an admitted
// result still lands in the cache for future requests). A leader error is
// shared with every parked follower and caches nothing, so a failed
// or aborted encode can never leave a partial entry behind.
//
// One class of leader error is NOT shared: context cancellation. If
// the leader's compute dies of the leader's own context (its client
// hung up, its deadline fired), that failure says nothing about the
// followers' requests — surfacing it would turn valid requests into
// terminal errors whenever a chaos-killed connection happened to lead.
// A follower whose own ctx is still live instead retries from the top
// and leads a fresh compute under its own fn. ctx.Err() is returned
// only when it is the follower's own context that ended.
//
// A panicking fn does not wedge the key: the in-flight call is
// unregistered and parked followers released with ErrComputePanicked
// before the panic propagates to the leader's caller.
func (c *Cache) Do(ctx context.Context, k Key, fn func() (any, error)) (any, Outcome, error) {
	s := c.shardFor(k)
	for {
		s.mu.Lock()
		if e, ok := s.m[k]; ok {
			s.moveToFront(e)
			v := e.val
			s.mu.Unlock()
			c.hits.Inc()
			return v, Hit, nil
		}
		if cl, ok := s.calls[k]; ok {
			s.mu.Unlock()
			c.coalesced.Inc()
			select {
			case <-cl.done:
				if cl.err != nil && ctx.Err() == nil &&
					(errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded)) {
					continue // the leader's context died, not ours: lead our own compute
				}
				return cl.val, Coalesced, cl.err
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
		}
		cl := &call{done: make(chan struct{}), admit: s.sighted(k)}
		s.calls[k] = cl
		s.mu.Unlock()
		c.misses.Inc()

		completed := false
		func() {
			defer func() {
				if !completed {
					cl.err = ErrComputePanicked
				}
				s.mu.Lock()
				delete(s.calls, k)
				s.mu.Unlock()
				close(cl.done)
			}()
			cl.val, cl.err = fn()
			if cl.err == nil {
				if cl.admit {
					c.Add(k, cl.val)
				} else {
					c.firstSeen.Inc()
				}
			}
			completed = true
		}()
		return cl.val, Miss, cl.err
	}
}

// Len reports the resident entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Bytes reports the charged resident size (values plus overhead).
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Package hashring is a consistent-hash ring with virtual nodes, the
// routing fabric of cluster-mode ninecd: requests shard on a hash of
// their test-set bytes, so every replay of the same set lands on the
// same backend and that backend's content-addressed cache sees the
// full duplicate stream instead of 1/N of it.
//
// The ring key only has to be deterministic, not collision-resistant:
// two bodies that share a key merely share a backend, which skews load
// but never serves a wrong response (the backend's own cache key is a
// secret-keyed AES-GMAC tag, see internal/cachex). So the key is the
// cheapest full pass over the body the hardware offers, CRC-32C.
//
// Each node is placed on the ring at vnodes pseudo-random points
// (hashes of "node#i"), which evens out the keyspace split and makes
// membership changes cheap: adding or removing one node remaps only
// the arcs it owned — on average 1/N of the keyspace — leaving every
// other node's cache warm. Health is a first-class state: an unhealthy
// node keeps its registration but drops off the ring, and its arcs
// fall to their successors until it recovers.
package hashring

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// castagnoli is the CRC-32C table; crc32.Update recognises it and runs
// the SSE4.2/ARMv8 CRC instructions where the CPU has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tagSep ends a routing tag: a byte outside the tag's alphabet
// (profile IDs are hex), so a tag cannot bleed into the body bytes.
var tagSep = []byte{0xFF}

// Hash is the ring's key hash: CRC-32C over the key bytes, with the
// key's length in the low word, run through a splitmix64 finalizer.
// The finalizer is load-bearing. A CRC is linear, so inputs that
// differ only near their tail (serial corpus names, neighbouring port
// numbers in backend URLs, "node#0".."node#63") have checksums related
// by a fixed XOR pattern. Placed raw, whole request families would
// fall into a band narrower than a ring arc and collapse onto one
// node. The full-avalanche finalizer spreads any single-bit input
// difference across all 64 output bits, which is what both key
// placement and vnode placement need.
func Hash(b []byte) uint64 { return HashTagged("", b) }

// HashTagged is Hash with a routing tag folded in ahead of the body:
// the same test-set bytes encoded under different codec profiles are
// different responses, so they must be distinct ring keys or one
// backend's cache would hold both families while its peers hold
// neither. An empty tag is the untagged key: HashTagged("", b) equals
// Hash(b).
//
// Every placement depends on this function, so a change to it moves
// every key: across an lb upgrade that changed it, backend caches
// re-warm once. TestHashGolden pins it.
func HashTagged(tag string, b []byte) uint64 {
	var crc uint32
	if tag != "" {
		crc = crc32.Update(0, castagnoli, []byte(tag))
		crc = crc32.Update(crc, castagnoli, tagSep)
	}
	crc = crc32.Update(crc, castagnoli, b)
	h := uint64(crc)<<32 ^ uint64(len(b))
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// vnodes is the virtual-node count per backend: enough that a
// three-node ring splits the keyspace within a few percent of evenly.
// It is a constant, not a setting, because no measurement asked for
// another value; changing it moves keys and re-warms every backend
// cache once. TestPlacementGolden pins it.
const vnodes = 64

type point struct {
	h    uint64
	node string
}

// Ring is a consistent-hash ring over a fixed node registration with
// dynamic health. Safe for concurrent use; PickN is lock-shared.
type Ring struct {
	mu     sync.RWMutex
	nodes  []string // registration order, all nodes healthy or not
	down   map[string]bool
	points []point // sorted, healthy nodes only
}

// New builds a ring over nodes (all initially healthy). Duplicate
// nodes error: a double registration would silently double that
// node's keyspace share.
func New(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("hashring: no nodes")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("hashring: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("hashring: duplicate node %q", n)
		}
		seen[n] = true
	}
	r := &Ring{nodes: append([]string(nil), nodes...), down: make(map[string]bool)}
	r.rebuild()
	return r, nil
}

// rebuild regenerates the sorted point list from the healthy nodes.
// Caller holds r.mu (or owns r exclusively during construction).
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for _, n := range r.nodes {
		if r.down[n] {
			continue
		}
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{h: Hash([]byte(fmt.Sprintf("%s#%d", n, i))), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
}

// PickN returns up to n distinct healthy nodes in ring order starting
// at hash h: the owner first, then each successor — the natural
// failover sequence, because the successor is exactly the node that
// inherits h's arc if the owner drops off the ring.
func (r *Ring) PickN(h uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if start == len(r.points) {
		start = 0
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		node := r.points[(start+i)%len(r.points)].node
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

// SetHealthy marks a registered node up or down, rebuilding the ring
// when the state actually changes. It reports whether a transition
// happened; unknown nodes are ignored (false).
func (r *Ring) SetHealthy(node string, healthy bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	known := false
	for _, n := range r.nodes {
		if n == node {
			known = true
			break
		}
	}
	if !known || r.down[node] == !healthy {
		return false
	}
	if healthy {
		delete(r.down, node)
	} else {
		r.down[node] = true
	}
	r.rebuild()
	return true
}

// Healthy returns the currently healthy nodes in registration order.
func (r *Ring) Healthy() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if !r.down[n] {
			out = append(out, n)
		}
	}
	return out
}

package hashring

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func mustRing(t *testing.T, nodes []string) *Ring {
	t.Helper()
	r, err := New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := New([]string{"a", ""}); err == nil {
		t.Fatal("empty node name accepted")
	}
	if _, err := New([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestPickDeterministic(t *testing.T) {
	r1 := mustRing(t, []string{"a", "b", "c"})
	r2 := mustRing(t, []string{"a", "b", "c"})
	for i := 0; i < 1000; i++ {
		h := Hash([]byte(fmt.Sprintf("key-%d", i)))
		n1, ok1 := r1.Pick(h)
		n2, ok2 := r2.Pick(h)
		if !ok1 || !ok2 || n1 != n2 {
			t.Fatalf("key %d: %q/%v vs %q/%v", i, n1, ok1, n2, ok2)
		}
	}
}

// TestBalance: a three-node ring should split
// 10k random keys within a loose factor of even.
func TestBalance(t *testing.T) {
	r := mustRing(t, []string{"a", "b", "c"})
	counts := map[string]int{}
	rng := rand.New(rand.NewSource(7))
	const n = 10000
	for i := 0; i < n; i++ {
		key := make([]byte, 16)
		rng.Read(key)
		node, ok := r.Pick(Hash(key))
		if !ok {
			t.Fatal("no node")
		}
		counts[node]++
	}
	for node, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("node %s owns %.1f%% of keys — ring badly unbalanced (%v)", node, frac*100, counts)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d nodes received keys: %v", len(counts), counts)
	}
}

// TestMinimalDisruption: dropping one node must not remap keys owned
// by the survivors — that is the whole point of consistent hashing.
func TestMinimalDisruption(t *testing.T) {
	r := mustRing(t, []string{"a", "b", "c"})
	const n = 5000
	before := make([]string, n)
	for i := 0; i < n; i++ {
		before[i], _ = r.Pick(Hash([]byte(fmt.Sprintf("key-%d", i))))
	}
	if !r.SetHealthy("b", false) {
		t.Fatal("SetHealthy(b, false) reported no transition")
	}
	moved := 0
	for i := 0; i < n; i++ {
		after, ok := r.Pick(Hash([]byte(fmt.Sprintf("key-%d", i))))
		if !ok {
			t.Fatal("no node after removal")
		}
		if after == "b" {
			t.Fatal("unhealthy node still picked")
		}
		if before[i] != "b" && after != before[i] {
			t.Fatalf("key-%d owned by healthy %q moved to %q", i, before[i], after)
		}
		if before[i] == "b" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("node b owned no keys before removal — ring degenerate")
	}
	// Recovery restores the exact original assignment.
	if !r.SetHealthy("b", true) {
		t.Fatal("SetHealthy(b, true) reported no transition")
	}
	for i := 0; i < n; i++ {
		after, _ := r.Pick(Hash([]byte(fmt.Sprintf("key-%d", i))))
		if after != before[i] {
			t.Fatalf("key-%d did not return to %q after recovery (got %q)", i, before[i], after)
		}
	}
}

func TestPickNDistinctAndOrdered(t *testing.T) {
	r := mustRing(t, []string{"a", "b", "c", "d"})
	for i := 0; i < 200; i++ {
		h := Hash([]byte(fmt.Sprintf("key-%d", i)))
		owner, _ := r.Pick(h)
		got := r.PickN(h, 3)
		if len(got) != 3 {
			t.Fatalf("PickN returned %d nodes, want 3", len(got))
		}
		if got[0] != owner {
			t.Fatalf("PickN[0] = %q, Pick = %q", got[0], owner)
		}
		seen := map[string]bool{}
		for _, n := range got {
			if seen[n] {
				t.Fatalf("PickN repeated node %q", n)
			}
			seen[n] = true
		}
	}
	// Asking for more nodes than exist returns them all, once each.
	if got := r.PickN(Hash([]byte("x")), 10); len(got) != 4 {
		t.Fatalf("PickN(10) over 4 nodes returned %d", len(got))
	}
}

// TestFailoverSuccession: for any key, PickN[1] is the node that
// inherits the key when PickN[0] goes down.
func TestFailoverSuccession(t *testing.T) {
	r := mustRing(t, []string{"a", "b", "c"})
	for i := 0; i < 300; i++ {
		h := Hash([]byte(fmt.Sprintf("key-%d", i)))
		order := r.PickN(h, 2)
		if len(order) != 2 {
			t.Fatal("short PickN")
		}
		r.SetHealthy(order[0], false)
		inherited, ok := r.Pick(h)
		r.SetHealthy(order[0], true)
		if !ok || inherited != order[1] {
			t.Fatalf("key-%d: with %q down, Pick = %q, want successor %q", i, order[0], inherited, order[1])
		}
	}
}

func TestAllDown(t *testing.T) {
	r := mustRing(t, []string{"a", "b"})
	r.SetHealthy("a", false)
	r.SetHealthy("b", false)
	if _, ok := r.Pick(1); ok {
		t.Fatal("Pick succeeded with every node down")
	}
	if got := r.PickN(1, 2); got != nil {
		t.Fatalf("PickN returned %v with every node down", got)
	}
	if got := r.Healthy(); len(got) != 0 {
		t.Fatalf("Healthy() = %v, want empty", got)
	}
}

func TestSetHealthyTransitions(t *testing.T) {
	r := mustRing(t, []string{"a", "b"})
	if r.SetHealthy("a", true) {
		t.Fatal("marking healthy node healthy reported a transition")
	}
	if !r.SetHealthy("a", false) {
		t.Fatal("marking healthy node down reported no transition")
	}
	if r.SetHealthy("a", false) {
		t.Fatal("marking down node down reported a transition")
	}
	if r.SetHealthy("zzz", false) {
		t.Fatal("unknown node accepted")
	}
	if got := r.Healthy(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Healthy() = %v, want [b]", got)
	}
	if got := r.Nodes(); len(got) != 2 {
		t.Fatalf("Nodes() = %v, want both", got)
	}
}

// TestConcurrentPickAndHealth is a race-detector hammer: health flaps
// while readers pick.
func TestConcurrentPickAndHealth(t *testing.T) {
	r := mustRing(t, []string{"a", "b", "c", "d"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Pick(Hash([]byte{byte(w), byte(i), byte(i >> 8)}))
				r.PickN(uint64(i)*2654435761, 2)
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nodes := []string{"a", "b", "c", "d"}
			for i := 0; i < 500; i++ {
				n := nodes[(w+i)%len(nodes)]
				r.SetHealthy(n, i%2 == 0)
			}
			for _, n := range nodes {
				r.SetHealthy(n, true)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Healthy(); len(got) != 4 {
		t.Fatalf("after hammer, Healthy() = %v", got)
	}
}

func BenchmarkPick(b *testing.B) {
	r, err := New([]string{"a", "b", "c", "d", "e"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Pick(uint64(i) * 0x9E3779B97F4A7C15)
	}
}

// TestHashGolden pins the ring key on fixed inputs. Every placement in
// the fleet — the lb's and the ring-aware client's — is a function of
// these values, so a change here moves every key and re-warms every
// backend cache once; it must be deliberate.
func TestHashGolden(t *testing.T) {
	profile := "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	for _, c := range []struct {
		tag  string
		body string
		want uint64
	}{
		{"", "", 0},
		{"", "0", 0xbc1fd868a93cfc3c},
		{"", "01X-\n10X1\n", 0x1eaf7cf9a292b874},
		{"", "http://127.0.0.1:9314#0", 0xc3758b8416b0bf06},
		{profile, "", 0xa3bcf36a3055d345},
		{profile, "01X-\n10X1\n", 0x50606c9cce7d71bf},
	} {
		if got := HashTagged(c.tag, []byte(c.body)); got != c.want {
			t.Errorf("HashTagged(%q, %q) = %#x, want %#x", c.tag, c.body, got, c.want)
		}
		if c.tag == "" {
			if got := Hash([]byte(c.body)); got != c.want {
				t.Errorf("Hash(%q) = %#x, want %#x", c.body, got, c.want)
			}
		}
	}
}

// TestPlacementGolden pins the failover order (owner, then successors)
// of fixed keys on a three-node ring of backend URLs. Placement is a
// function of Hash and the vnodes constant, so a failure here means
// every key moved: the lb and ring-aware clients from another version
// disagree, and every backend cache re-warms once. Changing either must
// be a deliberate edit of this table.
func TestPlacementGolden(t *testing.T) {
	r := mustRing(t, []string{"http://127.0.0.1:9314", "http://127.0.0.1:9315", "http://127.0.0.1:9316"})
	for _, c := range []struct {
		key   string
		order string // last digit of each backend's port, owner first
	}{
		{"set-00", "645"}, {"set-01", "645"}, {"set-02", "645"}, {"set-03", "564"},
		{"set-04", "645"}, {"set-05", "645"}, {"set-06", "465"}, {"set-07", "654"},
		{"set-08", "546"}, {"set-09", "654"}, {"set-10", "645"}, {"set-11", "456"},
		{"set-12", "465"}, {"set-13", "654"}, {"set-14", "456"}, {"set-15", "546"},
		{"set-16", "564"}, {"set-17", "546"}, {"set-18", "465"}, {"set-19", "456"},
	} {
		got := ""
		for _, n := range r.PickN(Hash([]byte(c.key)), 3) {
			got += n[len(n)-1:]
		}
		if got != c.order {
			t.Errorf("%s: failover order %s, want %s", c.key, got, c.order)
		}
	}
}

// TestHashTagSeparatesKeys: the tag and the length are part of the
// key, so neither a tagged body nor one whose bytes spell out a tag
// and separator shares a key with the plain body.
func TestHashTagSeparatesKeys(t *testing.T) {
	body := []byte("0101XX10\n")
	plain := Hash(body)
	if HashTagged("ab", body) == plain {
		t.Fatal("tagged key equals untagged key")
	}
	spelled := append([]byte("ab\xff"), body...)
	if Hash(spelled) == HashTagged("ab", body) {
		t.Fatal("body spelling out tag+separator collides with the tagged key")
	}
}

// hashSink keeps the benchmarked hash from being optimised away.
var hashSink uint64

// BenchmarkHash is the lb's per-request routing cost for a fixed-code
// request: one key over 01X bodies of the sizes the replay corpus sends.
func BenchmarkHash(b *testing.B) {
	for _, kb := range []int{24, 100, 200} {
		body := bytes.Repeat([]byte("01XX0110X1XX01X0\n"), (kb<<10)/17)
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink = Hash(body)
			}
		})
	}
}

package cachex

import (
	"bytes"
	"fmt"
	"testing"
)

// TestEncodeParamsProfileDistinctKeys is the cache/profile coherence
// regression test: two encodes of the *identical body* under different
// codec profiles must never share a cache key — a collision here is a
// silent wrong-bytes bug (a tuned encode served a fixed-9C container).
func TestEncodeParamsProfileDistinctKeys(t *testing.T) {
	body := []byte("0X1X\n1X0X\n")
	base := EncodeParams{K: 8, Name: "s"}
	tuned := base
	tuned.Profile = "a3f1c2d4e5f60718293a4b5c6d7e8f901234567890abcdef0123456789abcdef"
	other := base
	other.Profile = "b3f1c2d4e5f60718293a4b5c6d7e8f901234567890abcdef0123456789abcdef"

	if base.Key(body) == tuned.Key(body) {
		t.Fatal("fixed-code and profiled encode share a key for the same body")
	}
	if tuned.Key(body) == other.Key(body) {
		t.Fatal("two distinct profiles share a key for the same body")
	}
	if tuned.Key(body) != tuned.Key(body) {
		t.Fatal("keying is not deterministic")
	}
}

// TestEncodeParamsInjective pins the field-boundary property: a Name
// crafted to contain another field's rendering must not collide with
// the params that genuinely carry it.
func TestEncodeParamsInjective(t *testing.T) {
	body := []byte("body")
	cases := [][2]EncodeParams{
		// name smuggling a profile suffix vs a real profile
		{{K: 8, Name: "s|64:abc"}, {K: 8, Name: "s", Profile: "abc"}},
		// name vs profile holding the same string
		{{K: 8, Name: "p"}, {K: 8, Profile: "p"}},
		// k digits bleeding into fd
		{{K: 81, Name: "x"}, {K: 8, Name: "1x"}},
		// fd flag vs name spelling it
		{{K: 8, FD: true, Name: "s"}, {K: 8, Name: "true|s"}},
		// empty vs whitespace name
		{{K: 8}, {K: 8, Name: " "}},
	}
	for _, c := range cases {
		if c[0].Key(body) == c[1].Key(body) {
			t.Errorf("params collide: %+v vs %+v", c[0], c[1])
		}
	}
}

// TestEncodeParamsEveryFieldKeyed asserts each field independently
// perturbs the key.
func TestEncodeParamsEveryFieldKeyed(t *testing.T) {
	body := []byte("body")
	base := EncodeParams{K: 8, FD: false, Name: "n", Profile: "p"}
	variants := []EncodeParams{
		{K: 16, FD: false, Name: "n", Profile: "p"},
		{K: 8, FD: true, Name: "n", Profile: "p"},
		{K: 8, FD: false, Name: "m", Profile: "p"},
		{K: 8, FD: false, Name: "n", Profile: "q"},
	}
	for _, v := range variants {
		if base.Key(body) == v.Key(body) {
			t.Errorf("field change not reflected in key: %+v", v)
		}
	}
	if base.Key(body) == base.Key([]byte("other")) {
		t.Error("body change not reflected in key")
	}
}

func TestEncodeParamsKeyAllocs(t *testing.T) {
	p := EncodeParams{K: 8, Name: "corpus-3", Profile: "abcdef"}
	body := []byte("0X1X\n")
	allocs := testing.AllocsPerRun(200, func() { _ = p.Key(body) })
	// One bounded allocation for the rendered params; the digest path
	// itself stays allocation-free.
	if allocs > 1 {
		t.Fatalf("Key allocates %.1f times per call, want <= 1", allocs)
	}
}

// keySink keeps the benchmarked key from being optimised away.
var keySink Key

// BenchmarkEncodeParamsKey is the backend's per-request cache key:
// sha256 over the parameters and an 01X body of each size the replay
// corpus sends. Set it against BenchmarkHash in internal/hashring, the
// lb's routing key over the same bodies.
func BenchmarkEncodeParamsKey(b *testing.B) {
	p := EncodeParams{K: 8, Name: "request"}
	for _, kb := range []int{24, 100, 200} {
		body := bytes.Repeat([]byte("01XX0110X1XX01X0\n"), (kb<<10)/17)
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keySink = p.Key(body)
			}
		})
	}
}

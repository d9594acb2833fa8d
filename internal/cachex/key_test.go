package cachex

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// TestKeyOfZeroPadding: GHASH zero-pads each part to a whole block, so
// only the length block tells "0101" from "0101\x00". A GHASH without
// it would give these pairs one key.
func TestKeyOfZeroPadding(t *testing.T) {
	if KeyOf([]byte("k=8"), []byte("0101")) == KeyOf([]byte("k=8"), []byte("0101\x00")) {
		t.Error("a trailing zero byte on the body did not change the key")
	}
	if KeyOf([]byte("k=8"), []byte("0101")) == KeyOf([]byte("k=8\x00"), []byte("0101")) {
		t.Error("a trailing zero byte on the params did not change the key")
	}
	block := bytes.Repeat([]byte("01X\n"), 4) // exactly one GHASH block
	if KeyOf(nil, block) == KeyOf(nil, append(block, make([]byte, 16)...)) {
		t.Error("a zero block appended to the body did not change the key")
	}
}

// TestKeyOfSwapChangesKey: params and body play different roles, so
// swapping them must move the key — also where a plain concatenation
// reads the same both ways and where the two parts have equal length.
func TestKeyOfSwapChangesKey(t *testing.T) {
	for _, c := range [][2]string{
		{"01", "0101"},   // p+b == b+p
		{"k=8", ""},      // one side empty
		{"abcd", "wxyz"}, // equal lengths: the length block is symmetric
	} {
		p, b := []byte(c[0]), []byte(c[1])
		if KeyOf(p, b) == KeyOf(b, p) {
			t.Errorf("KeyOf(%q, %q) == KeyOf(%q, %q)", p, b, b, p)
		}
	}
}

// TestMACKeyed: the tag is a function of the MAC key. One key gives a
// stable tag, two keys give different tags, and under the all-zero key
// the construction is plain AES-128-GCM with a zero nonce: the tags
// are the NIST GCM spec's test cases 1 and 2.
func TestMACKeyed(t *testing.T) {
	mustMAC := func(key []byte) *mac {
		t.Helper()
		m, err := newMAC(key)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	zero := mustMAC(make([]byte, 16))
	for _, c := range []struct {
		params []byte
		want   string
	}{
		{nil, "58e2fccefa7e3061367f1d57a4e7455a"},
		{make([]byte, 16), "ab6e47d42cec13bdf53a67b21257bddf"},
	} {
		if got := zero.keyOf(c.params, nil); hex.EncodeToString(got[:]) != c.want {
			t.Errorf("zero key, %d-byte params: tag %x, want %s", len(c.params), got, c.want)
		}
	}

	k1 := bytes.Repeat([]byte{0x11}, 16)
	k2 := bytes.Repeat([]byte{0x22}, 16)
	params, body := []byte("k=8"), []byte("0101\n1X0X\n")
	a := mustMAC(k1).keyOf(params, body)
	if b := mustMAC(k1).keyOf(params, body); a != b {
		t.Errorf("one MAC key gave two tags: %x, %x", a, b)
	}
	if b := mustMAC(k2).keyOf(params, body); a == b {
		t.Errorf("two MAC keys gave one tag %x", a)
	}
	if _, err := newMAC(make([]byte, 15)); err == nil {
		t.Error("newMAC accepted a 15-byte AES key")
	}
}

// TestKeyOfConcurrent: 8 goroutines sharing the process MAC and its
// scratch pool compute the same keys as a serial loop.
func TestKeyOfConcurrent(t *testing.T) {
	const goroutines, perG = 8, 64
	params := []byte("k=8|false|1:s|0:")
	body := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%b\n", i)), 1+i%37)
	}
	want := make([]Key, goroutines*perG)
	for i := range want {
		want[i] = KeyOf(params, body(i))
	}
	got := make([]Key, len(want))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(got); i += goroutines {
				got[i] = KeyOf(params, body(i))
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[Key]int, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("body %d: concurrent key %x, serial %x", i, got[i], want[i])
		}
		if j, ok := seen[want[i]]; ok {
			t.Fatalf("bodies %d and %d share key %x", j, i, want[i])
		}
		seen[want[i]] = i
	}
}

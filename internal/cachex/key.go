package cachex

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"sync"
)

// Key is the content address of one request: a 128-bit AES-GMAC tag
// over the codec parameters and the input bytes, under a MAC key drawn
// once per process. Comparable, so it indexes shard maps directly with
// no per-lookup allocation.
//
// A Key means something only inside the process that computed it: it
// is never persisted or sent anywhere, so a restart or a rollout
// changes no compatibility.
type Key [16]byte

// KeyOf computes the content address of (params, body): the GCM tag of
// Seal(nonce, plaintext = params, additionalData = body) under the
// process's secret AES key and a fixed nonce.
//
// The tag is GHASH, a polynomial in the secret hash key H over the
// body blocks, the ciphertext blocks and a final block holding both
// lengths, masked with one AES block. The length block keeps the
// params/body boundary unambiguous even though GHASH zero-pads each
// part, and the ciphertext is an injective function of params. So for
// any two distinct (params, body) pairs, chosen without knowing the
// key, the tags collide with probability at most (ℓ+1)/2¹²⁸ over the
// key, where ℓ is the number of 16-byte blocks — below 2⁻¹⁰⁶ at
// ninecd's 64 MiB body cap. The nonce is fixed, but the tag never
// leaves the process, so its reuse gives an attacker nothing to work
// with.
//
// Allocation-free. KeyOf panics if the process cannot build the MAC;
// a caller that must fail cleanly calls CheckKey at startup.
func KeyOf(params, body []byte) Key {
	m, err := processMAC()
	if err != nil {
		panic(err)
	}
	return m.keyOf(params, body)
}

// CheckKey builds the process's MAC if it is not built yet and returns
// the error that stops it: cipher.NewGCM refuses to run under
// GODEBUG=fips140=only. The MAC is built lazily, so a binary that
// never keys a request is unaffected by that mode.
func CheckKey() error {
	_, err := processMAC()
	return err
}

// processMAC is the per-process MAC under a fresh random AES-128 key.
var processMAC = sync.OnceValues(func() (*mac, error) {
	var k [16]byte
	if _, err := rand.Read(k[:]); err != nil {
		return nil, err
	}
	return newMAC(k[:])
})

// nonce is the fixed GCM nonce: the key is secret and per process, and
// no ciphertext or tag is ever published, so uniqueness buys nothing.
var nonce [12]byte

// mac computes keys under one AES key. Seal's dst escapes through the
// AEAD interface, so the ciphertext scratch comes from a pool to keep
// KeyOf off the heap.
type mac struct {
	aead cipher.AEAD
	bufs sync.Pool // *[]byte
}

// newMAC builds a mac under aesKey (16, 24 or 32 bytes).
func newMAC(aesKey []byte) (*mac, error) {
	block, err := aes.NewCipher(aesKey)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &mac{aead: aead, bufs: sync.Pool{New: func() any { return new([]byte) }}}, nil
}

func (m *mac) keyOf(params, body []byte) Key {
	bp := m.bufs.Get().(*[]byte)
	out := m.aead.Seal((*bp)[:0], nonce[:], params, body)
	var k Key
	copy(k[:], out[len(out)-len(k):])
	*bp = out
	m.bufs.Put(bp)
	return k
}

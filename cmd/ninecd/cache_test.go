package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/robust"
)

// TestEncodeCacheHitByteIdentical: a repeated /encode is answered from
// the cache — X-Cache flips miss -> hit and the container bytes are
// identical to the cold encode's.
func TestEncodeCacheHitByteIdentical(t *testing.T) {
	ts, s := newTestServer(t, config{})
	text := []byte(sampleText(16, 64, 42))

	resp1, cold := post(t, ts.URL+"/encode?k=8&name=dup", text)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold encode: %d", resp1.StatusCode)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold X-Cache = %q, want miss", got)
	}
	for i := 0; i < 5; i++ {
		resp2, warm := post(t, ts.URL+"/encode?k=8&name=dup", text)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("warm encode %d: %d", i, resp2.StatusCode)
		}
		if got := resp2.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("warm X-Cache = %q, want hit", got)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("warm container differs from cold (%d vs %d bytes)", len(cold), len(warm))
		}
		if resp2.Header.Get("X-Patterns") != resp1.Header.Get("X-Patterns") ||
			resp2.Header.Get("X-Compressed-Bits") != resp1.Header.Get("X-Compressed-Bits") {
			t.Fatal("cached response lost its metadata headers")
		}
	}
	hits, misses := s.reg.Counter("ninecd.cache.hit").Value(), s.reg.Counter("ninecd.cache.miss").Value()
	if hits != 5 || misses != 1 {
		t.Fatalf("hit/miss = %d/%d, want 5/1", hits, misses)
	}
}

// TestEncodeCacheKeyIncludesParams: the same body under different
// codec parameters or name is a different cache entry — and a
// different container.
func TestEncodeCacheKeyIncludesParams(t *testing.T) {
	ts, _ := newTestServer(t, config{})
	text := []byte(sampleText(8, 32, 7))

	variants := []string{
		"/encode?k=8&name=a",
		"/encode?k=4&name=a",
		"/encode?k=8&name=b",
		"/encode?k=8&name=a&fd=1",
	}
	seen := map[string]string{}
	for _, path := range variants {
		resp, body := post(t, ts.URL+path, text)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("%s: X-Cache = %q, want miss (distinct key)", path, got)
		}
		for prev, prevBody := range seen {
			if prevBody == string(body) {
				t.Fatalf("%s and %s produced identical containers", path, prev)
			}
		}
		seen[path] = string(body)
	}
}

// TestEncodeCacheOff: -cache=off serves without the header and without
// touching cache state.
func TestEncodeCacheOff(t *testing.T) {
	ts, s := newTestServer(t, config{CacheOff: true})
	if s.cache != nil {
		t.Fatal("CacheOff still built a cache")
	}
	text := []byte(sampleText(8, 32, 9))
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+"/encode?k=8", text)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("encode %d: %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != "" {
			t.Fatalf("X-Cache = %q with the cache off", got)
		}
		if len(body) == 0 {
			t.Fatal("empty container")
		}
	}
}

// TestEncodeFailureNotCached: a request that fails to encode leaves no
// entry behind, and the same key succeeds once the input is valid.
func TestEncodeFailureNotCached(t *testing.T) {
	ts, s := newTestServer(t, config{})
	bad := []byte("0101\n01\n") // ragged widths: corrupt input
	for i := 0; i < 3; i++ {
		resp, _ := post(t, ts.URL+"/encode?k=8", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("corrupt input got %d, want 400", resp.StatusCode)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("failed encodes left %d cache entries", n)
	}
	// An empty set is also an error, also uncached.
	resp, _ := post(t, ts.URL+"/encode?k=8", []byte("# only a comment\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty set got %d, want 400", resp.StatusCode)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("empty-set encode left %d cache entries", n)
	}
}

// TestCachedContainerTruncationSalvage: a container served from the
// result cache is byte-identical to a fresh encode, so a cached copy
// truncated in transit behaves exactly like any damaged v4 container:
// the strict reader rejects it with a classified error, the lenient
// reader salvages the verified chunk prefix, every salvaged pattern
// matches the original encode, and the daemon's own streaming /decode
// terminates the body honestly instead of emitting corrupt rows.
func TestCachedContainerTruncationSalvage(t *testing.T) {
	ts, s := newTestServer(t, config{})
	const width = 256
	text := []byte(sampleText(400, width, 77)) // several chunks at DefaultChunkTrits

	resp, cold := post(t, ts.URL+"/encode?k=8&name=salvage", text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold encode: %d", resp.StatusCode)
	}
	resp, warm := post(t, ts.URL+"/encode?k=8&name=salvage", text)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm encode: %d X-Cache=%q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cache hit returned different container bytes")
	}

	full, _, err := container.ReadWithOptions(bytes.NewReader(warm), container.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cdc, err := core.NewWithAssignment(full.K, full.Assign)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cdc.DecodeSet(full.Stream, full.Width, full.Patterns)
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{len(warm) / 3, len(warm) / 2, 3 * len(warm) / 4} {
		trunc := warm[:cut]

		if _, _, err := container.ReadWithOptions(bytes.NewReader(trunc), container.Options{}); err == nil {
			t.Fatalf("cut %d: strict read accepted a truncated cached container", cut)
		} else if !robust.IsClassified(err) {
			t.Fatalf("cut %d: unclassified error %v", cut, err)
		}

		res, diag, err := container.ReadWithOptions(bytes.NewReader(trunc), container.Options{Lenient: true})
		if err != nil {
			t.Fatalf("cut %d: lenient read failed outright: %v", cut, err)
		}
		if diag.StreamErr == nil {
			t.Fatalf("cut %d: salvage recorded no fault", cut)
		}
		if res.Patterns == 0 || res.Patterns >= full.Patterns {
			t.Fatalf("cut %d: salvaged %d of %d patterns — want a proper prefix", cut, res.Patterns, full.Patterns)
		}
		got, derr := cdc.DecodeSetPartial(res.Stream, res.Width, res.Patterns)
		if got.Len() < res.Patterns {
			t.Fatalf("cut %d: salvage decode recovered %d/%d: %v", cut, got.Len(), res.Patterns, derr)
		}
		for i := 0; i < res.Patterns; i++ {
			if !got.Cube(i).Equal(ref.Cube(i)) {
				t.Fatalf("cut %d: salvaged pattern %d differs from the original", cut, i)
			}
		}

		// The streaming /decode path on the same truncated bytes commits
		// to 200 once the first chunk verifies, then ends the body with
		// an abort comment after exactly the salvageable patterns.
		resp, body := post(t, ts.URL+"/decode", trunc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cut %d: streaming decode of salvageable prefix: %d", cut, resp.StatusCode)
		}
		if !bytes.Contains(body, []byte("# decode aborted after")) {
			t.Fatalf("cut %d: truncated decode body missing the abort marker", cut)
		}
		rows := 0
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(line) > 0 && line[0] != '#' {
				rows++
				if len(line) != width {
					t.Fatalf("cut %d: decoded row width %d, want %d", cut, len(line), width)
				}
			}
		}
		if rows != res.Patterns {
			t.Fatalf("cut %d: streamed %d rows, lenient salvage recovered %d", cut, rows, res.Patterns)
		}
	}

	// Bytes appended after a valid trailer: every row streams, then the
	// body ends with the abort comment and the corrupt-fault counter
	// moves, just as container.Read rejects the same bytes.
	junk := append(append([]byte(nil), warm...), "JUNK"...)
	if _, err := container.Read(bytes.NewReader(junk)); !errors.Is(err, robust.ErrCorrupt) {
		t.Fatalf("trailing bytes: Read err %v, want ErrCorrupt", err)
	}
	corrupt := s.reg.Counter("ninecd.decode.fault.corrupt")
	before := corrupt.Value()
	resp, body := post(t, ts.URL+"/decode", junk)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing bytes: decode %d", resp.StatusCode)
	}
	abort := fmt.Sprintf("# decode aborted after %d patterns: ", full.Patterns)
	if last := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1; !bytes.HasPrefix(body[last:], []byte(abort)) {
		t.Fatalf("trailing bytes: body does not end with %q", abort)
	}
	if rows := bytes.Count(body, []byte("\n")) - 1; rows != full.Patterns {
		t.Fatalf("trailing bytes: streamed %d rows, want %d", rows, full.Patterns)
	}
	if got := corrupt.Value() - before; got != 1 {
		t.Fatalf("trailing bytes: ninecd.decode.fault.corrupt moved by %d, want 1", got)
	}
}

// TestDecodeMultiChunkFullContainer: a valid container spanning
// several chunks decodes completely over HTTP. The handler reads the
// request body while the response is already streaming, which needs
// full-duplex HTTP — without it the server closes the body at the
// first response write and the decode silently stops after one chunk.
func TestDecodeMultiChunkFullContainer(t *testing.T) {
	ts, _ := newTestServer(t, config{})
	const patterns, width = 400, 256
	text := []byte(sampleText(patterns, width, 78))
	resp, cont := post(t, ts.URL+"/encode?k=8&name=big", text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("encode: %d", resp.StatusCode)
	}
	resp, body := post(t, ts.URL+"/decode", cont)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: %d", resp.StatusCode)
	}
	if bytes.Contains(body, []byte("# decode aborted")) {
		t.Fatalf("valid container aborted mid-decode:\n%s", body[len(body)-200:])
	}
	rows := 0
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			rows++
			if len(line) != width {
				t.Fatalf("row width %d, want %d", len(line), width)
			}
		}
	}
	if rows != patterns {
		t.Fatalf("decoded %d rows, want %d", rows, patterns)
	}
}

// TestCodecTableConcurrentInit: concurrent requests for the -k
// default all share one codec instance, and invalid block sizes error
// every time. Run with -race to make this a real check.
func TestCodecTableConcurrentInit(t *testing.T) {
	tbl := newCodecTable(8)
	const workers = 64
	ptrs := make([]any, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := tbl.get(8)
			if err != nil {
				t.Error(err)
				return
			}
			ptrs[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatalf("worker %d got a different codec instance", i)
		}
	}
	if _, err := tbl.get(3); err == nil {
		t.Fatal("odd k accepted")
	}
	if _, err := tbl.get(3); err == nil {
		t.Fatal("odd k accepted on second probe")
	}
	if _, err := newCodecTable(3).get(3); err == nil {
		t.Fatal("odd -k default accepted")
	}
	// The canonical assignment routes through the shared codec; a
	// non-canonical one builds fresh.
	c1, err := tbl.getAssign(8, defaultAssign)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != ptrs[0] {
		t.Fatal("getAssign(default) bypassed the shared codec")
	}
}

// TestCodecTableBounded: a client sending many distinct block sizes
// gets a correct container for each, while only the -k default is
// kept: it stays one pointer, and every other K is built per request.
func TestCodecTableBounded(t *testing.T) {
	ts, s := newTestServer(t, config{CacheOff: true})
	text := []byte(strings.ReplaceAll(sampleText(6, 90, 3), "X", "1"))
	for k := 2; k <= 400; k += 2 {
		resp, cont := post(t, fmt.Sprintf("%s/encode?k=%d", ts.URL, k), text)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: encode status %d: %s", k, resp.StatusCode, cont)
		}
		resp, out := post(t, ts.URL+"/decode", cont)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: decode status %d: %s", k, resp.StatusCode, out)
		}
		if want := strings.SplitN(string(text), "\n", 2)[1]; string(out) != want {
			t.Fatalf("k=%d: round trip differs:\n%s\nwant\n%s", k, out, want)
		}
	}
	def, _ := s.codecs.get(8)
	if c, _ := s.codecs.get(8); def == nil || c != def {
		t.Fatal("the -k default is not one shared codec")
	}
	c1, _ := s.codecs.get(16)
	c2, _ := s.codecs.get(16)
	if c1 == nil || c1 == c2 {
		t.Fatal("a K other than -k is kept instead of built per request")
	}
}

package main

import (
	"context"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/cachex"
)

// fipsOnly is the GODEBUG setting under which cipher.NewGCM refuses to
// build, so the cache key cannot be computed.
const fipsOnly = "fips140=only"

// TestFIPSOnlyStartup re-runs this test binary under
// GODEBUG=fips140=only, where TestFIPSOnlyServing does the real work.
// The mode is read once at process start, so it needs a fresh process.
func TestFIPSOnlyStartup(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), fipsOnly) {
		t.Skip("already in FIPS-only mode; TestFIPSOnlyServing runs in this process")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFIPSOnlyServing$", "-test.v", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG="+fipsOnly)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("FIPS-only child failed: %v\n%s", err, out)
	}
	for _, want := range []string{"--- PASS: TestFIPSOnlyServing", "ninecd: cache: crypto/cipher: use of GCM"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("FIPS-only child output lacks %q:\n%s", want, out)
		}
	}
}

// TestFIPSOnlyServing runs only under GODEBUG=fips140=only. With the
// cache on, ninecd must exit at startup with the GCM error rather than
// listen and answer 500 per /encode; with the cache off it must still
// serve /encode.
func TestFIPSOnlyServing(t *testing.T) {
	if !strings.Contains(os.Getenv("GODEBUG"), fipsOnly) {
		t.Skip("needs GODEBUG=" + fipsOnly + "; TestFIPSOnlyStartup runs it")
	}
	if err := cachex.CheckKey(); err == nil || !strings.Contains(err.Error(), "GCM") {
		t.Fatalf("CheckKey = %v, want the GCM refusal", err)
	}
	if code := realMain([]string{"-addr", "127.0.0.1:0"}); code != 1 {
		t.Fatalf("realMain with the cache on exited %d, want 1", code)
	}

	ts, _ := newTestServer(t, config{CacheOff: true})
	resp, out := post(t, ts.URL+"/encode?k=8&name=fips", []byte(sampleText(8, 32, 1)))
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(out), "N9C4") {
		t.Fatalf("cache-off /encode: %d, %q", resp.StatusCode, out[:min(len(out), 64)])
	}
}

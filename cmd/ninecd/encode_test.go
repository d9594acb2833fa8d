package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/batchenc"
	"repro/internal/tcube"
)

// TestEncodeErrorStatus: /encode maps a batchenc error to its status,
// X-Error-Class and text, for every body the encoder refuses. That the
// encoder's errors are the parser's is FuzzEncodeText's job.
func TestEncodeErrorStatus(t *testing.T) {
	ts, s := newTestServer(t, config{CacheOff: true})
	bodies := map[string]string{
		"bad character":    "01X\n01@\n",
		"ragged":           "0101\n010\n",
		"tab in a row":     "01\t01\n",
		"empty set":        "# only a comment\n\n",
		"empty body":       "",
		"row over the cap": strings.Repeat("0", tcube.MaxLineBytes) + "\n",
	}
	for name, body := range bodies {
		_, err := s.enc.Encode(context.Background(), batchenc.Request{Text: []byte(body), K: 8, Name: "fid"})
		if err == nil {
			t.Fatalf("%s: the encoder accepted the body", name)
		}
		resp, got := post(t, ts.URL+"/encode?name=fid&k=8", []byte(body))
		if resp.StatusCode != statusFor(err) || string(got) != err.Error()+"\n" ||
			resp.Header.Get("X-Error-Class") != errClass(err) {
			t.Errorf("%s: %d %s %q, want %d %s %q", name, resp.StatusCode,
				resp.Header.Get("X-Error-Class"), got, statusFor(err), errClass(err), err.Error()+"\n")
		}
	}
}

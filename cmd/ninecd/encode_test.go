package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
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

// TestEncodeClientGone: an /encode whose client hung up is a 408 of
// class client_gone, with the result cache on or off. The handler is
// driven directly with an already-cancelled context, as in
// TestTrainHonoursDeadline.
func TestEncodeClientGone(t *testing.T) {
	for _, cacheOff := range []bool{false, true} {
		_, s := newTestServer(t, config{CacheOff: cacheOff})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPost, "/encode", strings.NewReader(sampleText(4, 16, 5))).WithContext(ctx)
		err := s.handleEncode(httptest.NewRecorder(), req)
		if err == nil || statusFor(err) != http.StatusRequestTimeout || errClass(err) != "client_gone" {
			t.Fatalf("cache off %v: cancelled encode: %v (status %d, class %s), want a 408 client_gone error",
				cacheOff, err, statusFor(err), errClass(err))
		}
	}
}

// brokenWriter is a ResponseWriter whose client has gone away: every
// body write fails. It records the status codes set on it and counts
// the writes tried.
type brokenWriter struct {
	h      http.Header
	codes  []int
	writes int
}

func (w *brokenWriter) Header() http.Header  { return w.h }
func (w *brokenWriter) WriteHeader(code int) { w.codes = append(w.codes, code) }
func (w *brokenWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("broken pipe")
}

// TestEncodeFailedWriteIsNotAFault: once /encode has a result, a
// failed body write means the client went away. It is not a request
// fault: no fault counter moves and no error status follows the
// committed response.
func TestEncodeFailedWriteIsNotAFault(t *testing.T) {
	_, s := newTestServer(t, config{})
	w := &brokenWriter{h: http.Header{}}
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/encode", strings.NewReader(sampleText(4, 16, 6))))
	if w.writes != 1 {
		t.Fatalf("%d body writes, want the one container write", w.writes)
	}
	for _, code := range w.codes {
		if code != http.StatusOK {
			t.Fatalf("status codes %v after a failed body write, want none but 200", w.codes)
		}
	}
	for _, class := range []string{"bad_request", "client_gone"} {
		if got := s.reg.Counter("ninecd.encode.fault." + class).Value(); got != 0 {
			t.Fatalf("ninecd.encode.fault.%s = %d after a failed body write, want 0", class, got)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/batchenc"
	"repro/internal/codecopt"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/tcube"
)

// skewedText builds a corpus whose case distribution is far from
// uniform, so a tuned profile has something to gain over the fixed
// code.
func skewedText(patterns, width int) string {
	var b strings.Builder
	for i := 0; i < patterns; i++ {
		for j := 0; j < width; j++ {
			switch {
			case (i*width+j)%17 == 0:
				b.WriteByte('1')
			case (i+j)%3 == 0:
				b.WriteByte('0')
			default:
				b.WriteByte('X')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// trainReport drives POST /train and decodes the report.
func trainReport(t *testing.T, url, query, corpus string) codecopt.Report {
	t.Helper()
	resp, body := post(t, url+"/train"+query, []byte(corpus))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d %s", resp.StatusCode, body)
	}
	var rep codecopt.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("train report: %v\n%s", err, body)
	}
	if rep.ProfileID == "" || rep.Canonical == "" {
		t.Fatalf("train report missing profile: %s", body)
	}
	if resp.Header.Get("X-Codec-Profile") != rep.ProfileID {
		t.Fatalf("train response header %q != report id %q",
			resp.Header.Get("X-Codec-Profile"), rep.ProfileID)
	}
	return rep
}

// postProfiled is post with an X-Codec-Profile header.
func postProfiled(t *testing.T, url, id string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Codec-Profile", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := new(bytes.Buffer)
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestTrainedProfileDifferentialRoundTrip is the daemon half of the
// differential requirement: train a profile through POST /train, push
// the corpus through /encode with X-Codec-Profile, and require (a) the
// daemon's container to be byte-identical to an in-process profiled
// encode of the same set, and (b) /decode of that container to cover
// every specified source bit.
func TestTrainedProfileDifferentialRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, config{})
	corpus := skewedText(24, 64)
	rep := trainReport(t, ts.URL, "", corpus)
	if rep.UpliftPct < 0 {
		t.Fatalf("tuned profile worse than fixed: uplift %.3f", rep.UpliftPct)
	}

	// Daemon encode under the trained profile.
	resp, cont := postProfiled(t, ts.URL+"/encode?name=diff", rep.ProfileID, []byte(corpus))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiled encode: %d %s", resp.StatusCode, cont)
	}
	if got := resp.Header.Get("X-Codec-Profile"); got != rep.ProfileID {
		t.Fatalf("encode echoed profile %q, want %q", got, rep.ProfileID)
	}
	if string(cont[:4]) != container.Magic4 {
		t.Fatalf("profiled encode returned %q, want a v4 container", cont[:4])
	}

	// Reference: the same set through the in-process profiled kernel.
	prof, err := codecopt.ParseProfile([]byte(rep.Canonical))
	if err != nil {
		t.Fatalf("report profile does not parse: %v", err)
	}
	set, err := tcube.Read("diff", strings.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := batchenc.New(batchenc.Config{}).Encode(context.Background(),
		batchenc.Request{Set: set, Name: "diff", Profile: &prof})
	if err != nil {
		t.Fatalf("reference profiled encode: %v", err)
	}
	if !bytes.Equal(cont, ref.Container) {
		t.Fatalf("daemon container (%d bytes) differs from in-process profiled encode (%d bytes)",
			len(cont), len(ref.Container))
	}

	// Daemon decode of the daemon's container must cover the source.
	resp, text := post(t, ts.URL+"/decode", cont)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: %d %s", resp.StatusCode, text)
	}
	dec, err := tcube.Read("dec", bytes.NewReader(text))
	if err != nil {
		t.Fatalf("decode output does not parse: %v", err)
	}
	filled, err := prof.Fill.Apply(set)
	if err != nil {
		t.Fatal(err)
	}
	if !filled.Covers(dec) {
		t.Fatal("daemon decode contradicts the source set")
	}
}

// TestEncodeUnknownProfile pins the 404 + profile_unknown contract.
func TestEncodeUnknownProfile(t *testing.T) {
	ts, _ := newTestServer(t, config{})
	resp, body := postProfiled(t, ts.URL+"/encode", strings.Repeat("ab", 32), []byte("0X1X\n"))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown profile: %d %s, want 404", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Error-Class"); got != "profile_unknown" {
		t.Fatalf("error class %q, want profile_unknown", got)
	}
}

// TestProfileInstallAndGet: install by canonical text, fetch it back
// byte-identically, and miss on an unknown ID.
func TestProfileInstallAndGet(t *testing.T) {
	ts, _ := newTestServer(t, config{})
	p := codecopt.Profile{K: 8, Lengths: core.DefaultAssignment().Lengths(), Fill: codecopt.FillNone}
	canon := p.Canonical()

	resp, body := post(t, ts.URL+"/profiles", canon)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install: %d %s", resp.StatusCode, body)
	}
	var out map[string]string
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["id"] != p.ID() {
		t.Fatalf("install returned id %q, want %q", out["id"], p.ID())
	}

	got, err := http.Get(ts.URL + "/profiles/" + p.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(got.Body)
	if got.StatusCode != http.StatusOK || !bytes.Equal(buf.Bytes(), canon) {
		t.Fatalf("get: %d %q, want 200 %q", got.StatusCode, buf.String(), canon)
	}

	miss, err := http.Get(ts.URL + "/profiles/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown profile get: %d, want 404", miss.StatusCode)
	}

	// A corrupt install must be rejected as a 4xx, not stored.
	bad, body := post(t, ts.URL+"/profiles", []byte("9cprof/1 k=8 broken\n"))
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt install: %d %s, want 400", bad.StatusCode, body)
	}
}

// TestLongestProfileRoundTrip: a profile whose codewords are as long as
// a codec accepts (core.MaxCodeLen bits) installs, encodes and decodes
// back to the source through the daemon; one bit longer is refused at
// install, so no /encode can write a container /decode refuses.
func TestLongestProfileRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, config{})
	for _, n := range []string{"9", "79"} {
		resp, body := post(t, ts.URL+"/profiles", []byte("9cprof/1 k=8 fill=none lens=1,2,3,4,5,6,7,"+n+","+n+"\n"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s-bit codeword profile: %d %s, want 400", n, resp.StatusCode, body)
		}
	}
	canon := []byte("9cprof/1 k=8 fill=none lens=1,2,3,4,5,6,7,8,8\n")
	resp, body := post(t, ts.URL+"/profiles", canon)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install: %d %s", resp.StatusCode, body)
	}
	var out map[string]string
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	corpus := skewedText(24, 64)
	resp, cont := postProfiled(t, ts.URL+"/encode?name=long", out["id"], []byte(corpus))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiled encode: %d %s", resp.StatusCode, cont)
	}
	resp, text := post(t, ts.URL+"/decode", cont)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: %d %s", resp.StatusCode, text)
	}
	set, err := tcube.Read("src", strings.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := tcube.Read("dec", bytes.NewReader(text))
	if err != nil {
		t.Fatalf("decode output does not parse: %v", err)
	}
	if dec.Len() != set.Len() || !set.Covers(dec) {
		t.Fatalf("decoded %d patterns that do not cover the %d source patterns", dec.Len(), set.Len())
	}
}

// TestEncodeCacheProfileCoherence is the end-to-end face of the
// cache-key bugfix: the same body encoded fixed, then under a profile,
// must never share a cache entry. Before EncodeParams the second
// request would have been a hit serving fixed-9C bytes as "tuned".
func TestEncodeCacheProfileCoherence(t *testing.T) {
	ts, _ := newTestServer(t, config{})
	corpus := skewedText(8, 32)
	rep := trainReport(t, ts.URL, "?k=8&fill=none&dict=0", corpus)

	body := []byte(corpus)
	r1, _ := post(t, ts.URL+"/encode?name=c", body)
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first fixed encode: X-Cache %q, want miss", got)
	}
	r2, _ := post(t, ts.URL+"/encode?name=c", body)
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second fixed encode: X-Cache %q, want hit", got)
	}
	r3, cont := postProfiled(t, ts.URL+"/encode?name=c", rep.ProfileID, body)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("profiled encode: %d %s", r3.StatusCode, cont)
	}
	if got := r3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("profiled encode of a fixed-cached body: X-Cache %q, want miss (key collision)", got)
	}
}

// TestTrainAsync: async=1 and dict=0 are ignored. The train answers
// 200 with its report in the same request, the profile is resident,
// and there is no job endpoint to poll.
func TestTrainAsync(t *testing.T) {
	ts, _ := newTestServer(t, config{})
	rep := trainReport(t, ts.URL, "?k=8&fill=none&dict=0&async=1", skewedText(8, 32))
	pr, err := http.Get(ts.URL + "/profiles/" + rep.ProfileID)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("trained profile not resident: %d", pr.StatusCode)
	}
	job, err := http.Get(ts.URL + "/train/jobs/x")
	if err != nil {
		t.Fatal(err)
	}
	job.Body.Close()
	if job.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /train/jobs/x: %d, want 404", job.StatusCode)
	}
}

// TestTrainHonoursDeadline: a train whose request deadline has passed
// fails with the deadline class, which answers 503, and installs
// nothing. The handler is driven directly with an already-expired
// context: through guard, admission would race the done context
// against a free worker slot.
func TestTrainHonoursDeadline(t *testing.T) {
	_, s := newTestServer(t, config{})
	resident := s.profiles.Len()
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/train", strings.NewReader(skewedText(8, 32))).WithContext(ctx)
	err := s.handleTrain(httptest.NewRecorder(), req)
	if err == nil || statusFor(err) != http.StatusServiceUnavailable || errClass(err) != "deadline" {
		t.Fatalf("expired train: %v (status %d), want a 503 deadline error", err, statusFor(err))
	}
	if got := s.profiles.Len(); got != resident {
		t.Fatalf("resident profiles %d after an expired train, want %d", got, resident)
	}
	if got := s.reg.Counter("ninecd.train.failures").Value(); got != 1 {
		t.Fatalf("ninecd.train.failures = %d, want 1", got)
	}
}

// TestTrainClientGone: a client that hangs up during a train is a 408
// of class client_gone, not a bad request, and installs nothing. The
// handler is driven directly with an already-cancelled context, as in
// TestTrainHonoursDeadline.
func TestTrainClientGone(t *testing.T) {
	_, s := newTestServer(t, config{})
	resident := s.profiles.Len()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/train", strings.NewReader(skewedText(8, 32))).WithContext(ctx)
	err := s.handleTrain(httptest.NewRecorder(), req)
	if err == nil || statusFor(err) != http.StatusRequestTimeout || errClass(err) != "client_gone" {
		t.Fatalf("cancelled train: %v (status %d, class %s), want a 408 client_gone error", err, statusFor(err), errClass(err))
	}
	if got := s.profiles.Len(); got != resident {
		t.Fatalf("resident profiles %d after a cancelled train, want %d", got, resident)
	}
}

// TestTrainRejectsUnusableAxes: a K that no profile can carry is a 400
// before any training, with or without the ignored async=1, and
// installs nothing. K=66 is a
// valid codec block size but not a valid profile, so /encode and
// POST /profiles would refuse what /train produced.
func TestTrainRejectsUnusableAxes(t *testing.T) {
	ts, s := newTestServer(t, config{})
	corpus := []byte(skewedText(8, 32))
	resident := s.profiles.Len()
	for _, q := range []string{"?k=66", "?k=7", "?k=66&async=1", "?fill=bogus"} {
		resp, body := post(t, ts.URL+"/train"+q, corpus)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/train%s: %d %s, want 400", q, resp.StatusCode, body)
		}
	}
	if got := s.profiles.Len(); got != resident {
		t.Fatalf("resident profiles %d after refused trains, want %d", got, resident)
	}
}

// TestTrainBaselineWithoutNone: with the fill axis pinned to zero, the
// uplift is still measured against the paper code at fill=none.
func TestTrainBaselineWithoutNone(t *testing.T) {
	ts, s := newTestServer(t, config{})
	corpus := skewedText(8, 32)
	none := trainReport(t, ts.URL, "?k=8&fill=none&dict=0", corpus)
	rep := trainReport(t, ts.URL, "?k=8&fill=zero&dict=0", corpus)
	if rep.FixedBits <= 0 || rep.FixedK != 8 || rep.FixedBits != none.FixedBits {
		t.Fatalf("fill=zero baseline %d bits at K=%d, want %d at K=8",
			rep.FixedBits, rep.FixedK, none.FixedBits)
	}
	if !strings.Contains(rep.Canonical, "fill=zero") {
		t.Fatalf("fill=zero train installed %q", rep.Canonical)
	}
	if got, want := s.reg.Gauge("ninecd.train.last_uplift_bp").Value(), int64(rep.UpliftPct*100); got != want {
		t.Fatalf("last_uplift_bp %d, want %d", got, want)
	}
}

// TestTrainIgnoresSeed: /train no longer takes a seed; callers that
// still send one get the same 200 and the same profile.
func TestTrainIgnoresSeed(t *testing.T) {
	ts, _ := newTestServer(t, config{})
	corpus := skewedText(8, 32)
	a := trainReport(t, ts.URL, "?k=8&dict=0", corpus)
	b := trainReport(t, ts.URL, "?k=8&dict=0&seed=7", corpus)
	if a.ProfileID != b.ProfileID {
		t.Fatalf("seed changed the profile: %s vs %s", a.ProfileID, b.ProfileID)
	}
}

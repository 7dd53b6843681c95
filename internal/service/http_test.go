package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"flowdroid/internal/appgen"
	"flowdroid/internal/metrics"
)

// newTestAPI starts a server plus its HTTP front. The caller gets the
// base URL; cleanup drains and closes everything.
func newTestAPI(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler(true))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, url string, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHTTPSubmitPollResult(t *testing.T) {
	rec := metrics.New()
	_, ts := newTestAPI(t, Config{QueueSize: 4, Analyses: 2, Recorder: rec})

	app := appgen.GenerateCorpus(appgen.Malware, 1, 3)[0]
	resp, body := postJob(t, ts.URL, Request{Files: app.Files})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("submit body %s: %v", body, err)
	}
	if sub.ID == "" || sub.Fingerprint == "" {
		t.Fatalf("submit response incomplete: %+v", sub)
	}

	// Poll the status endpoint to completion.
	var st JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, ts.URL+"/v1/jobs/"+sub.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status body %s: %v", body, err)
		}
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != "done" || st.Status != "Complete" {
		t.Fatalf("final state %q status %q error %q", st.State, st.Status, st.Error)
	}

	resp, body = get(t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	var rep Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("result body: %v", err)
	}
	if rep.Status != "Complete" {
		t.Fatalf("report status %q, want Complete", rep.Status)
	}
	if len(rep.Leaks) != app.InjectedLeaks {
		t.Fatalf("reported %d leaks, ground truth %d", len(rep.Leaks), app.InjectedLeaks)
	}
	if rep.Counters.Propagations == 0 {
		t.Fatal("report carries no solver counters")
	}

	// The list endpoint knows the job too.
	resp, body = get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var all []JobStatus
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != sub.ID {
		t.Fatalf("list = %+v, want the one job", all)
	}
}

func TestHTTPResultBeforeDone(t *testing.T) {
	s, ts := newTestAPI(t, Config{QueueSize: 2, Analyses: 1})
	release := make(chan struct{})
	s.beforeJob = func(ctx context.Context, id string) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)

	resp, body := postJob(t, ts.URL, Request{Files: appgen.GenerateCorpus(appgen.Play, 1, 2)[0].Files})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var sub SubmitResponse
	json.Unmarshal(body, &sub)
	resp, body = get(t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result: %d %s, want 409", resp.StatusCode, body)
	}
	release <- struct{}{}
}

// TestHTTPRejectsRetiredDegradeField: the request schema no longer has
// "degrade", and the decoder rejects unknown fields, so a client still
// sending it gets a 400 naming the field instead of a job that silently
// ignores it. The same package without the field is accepted.
func TestHTTPRejectsRetiredDegradeField(t *testing.T) {
	_, ts := newTestAPI(t, Config{Analyses: 1})
	files, err := json.Marshal(appgen.GenerateCorpus(appgen.Play, 1, 4)[0].Files)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	code, body := post(`{"files": ` + string(files) + `, "maxPropagations": 5, "degrade": true}`)
	if code != http.StatusBadRequest {
		t.Fatalf("submit with \"degrade\": %d %s, want 400", code, body)
	}
	var e httpError
	if err := json.Unmarshal([]byte(body), &e); err != nil || !strings.Contains(e.Error, `"degrade"`) {
		t.Errorf("400 body %s does not name the rejected field \"degrade\"", body)
	}
	if code, body := post(`{"files": ` + string(files) + `, "maxPropagations": 5}`); code != http.StatusAccepted {
		t.Fatalf("submit without \"degrade\": %d %s, want 202", code, body)
	}
}

func TestHTTPRejections(t *testing.T) {
	s, ts := newTestAPI(t, Config{QueueSize: 1, Analyses: 1})
	release := make(chan struct{})
	s.beforeJob = func(ctx context.Context, id string) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)

	// Bad JSON and empty packages are 400s.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d, want 400", resp.StatusCode)
	}
	resp, body := postJob(t, ts.URL, Request{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty package: %d %s, want 400", resp.StatusCode, body)
	}

	// Fill the executor and the queue, then overflow: 429 + Retry-After.
	files := appgen.GenerateCorpus(appgen.Play, 1, 4)[0].Files
	resp, body = postJob(t, ts.URL, Request{Files: files})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	var first SubmitResponse
	json.Unmarshal(body, &first)
	waitRunning(t, s, first.ID)
	if resp, _ = postJob(t, ts.URL, Request{Files: files}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	resp, body = postJob(t, ts.URL, Request{Files: files})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var he httpError
	if err := json.Unmarshal(body, &he); err != nil || he.Error == "" {
		t.Fatalf("429 body %s: %v", body, err)
	}
	release <- struct{}{}
	release <- struct{}{}
}

// TestRetryAfterRoundsUp pins the admission-rejection header contract:
// a positive wait never emits Retry-After: 0 (sub-second cooldowns used
// to truncate to zero and well-behaved clients hammered immediately),
// the header rounds up so it never under-states the wait, and the JSON
// body keeps the exact wait in milliseconds.
func TestRetryAfterRoundsUp(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		for _, wait := range []time.Duration{
			time.Millisecond, 250 * time.Millisecond, 999 * time.Millisecond,
			time.Second, 1500 * time.Millisecond, 2500 * time.Millisecond, 3 * time.Second,
		} {
			rr := httptest.NewRecorder()
			writeError(rr, code, "try later", wait)
			h := rr.Header().Get("Retry-After")
			secs, err := strconv.Atoi(h)
			if err != nil {
				t.Fatalf("code %d wait %v: Retry-After %q is not an integer", code, wait, h)
			}
			if secs < 1 {
				t.Fatalf("code %d wait %v: Retry-After %d, want >= 1 on a positive wait", code, wait, secs)
			}
			if float64(secs) < wait.Seconds() {
				t.Fatalf("code %d wait %v: Retry-After %d under-states the wait", code, wait, secs)
			}
			if float64(secs)-wait.Seconds() >= 1 {
				t.Fatalf("code %d wait %v: Retry-After %d over-states the wait by a second or more", code, wait, secs)
			}
			var he httpError
			if err := json.Unmarshal(rr.Body.Bytes(), &he); err != nil {
				t.Fatal(err)
			}
			if he.RetryAfterMS != wait.Milliseconds() {
				t.Fatalf("code %d wait %v: retryAfterMs %d, want exact %d", code, wait, he.RetryAfterMS, wait.Milliseconds())
			}
		}
	}
	// No wait, no header.
	rr := httptest.NewRecorder()
	writeError(rr, http.StatusServiceUnavailable, "draining", 0)
	if h := rr.Header().Get("Retry-After"); h != "" {
		t.Fatalf("zero wait emitted Retry-After %q", h)
	}
}

func TestHTTPUnknownJob(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	resp, _ := get(t, ts.URL+"/v1/jobs/job-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/jobs/job-999/result")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result: %d, want 404", resp.StatusCode)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	rec := metrics.New()
	s, ts := newTestAPI(t, Config{QueueSize: 3, Recorder: rec})

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
		Stats
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body %s: %v", body, err)
	}
	if h.Status != "ok" || h.QueueCap != 3 {
		t.Fatalf("healthz %+v", h)
	}

	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics body: %v", err)
	}

	// pprof and expvar ride the same mux when enabled.
	resp, _ = get(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/vars: %d", resp.StatusCode)
	}

	// Draining flips healthz to 503 so load balancers stop routing here.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d %s, want 503", resp.StatusCode, body)
	}
	json.Unmarshal(body, &h)
	if h.Status != "draining" {
		t.Fatalf("draining healthz status %q", h.Status)
	}
	resp, _ = postJob(t, ts.URL, Request{Files: map[string]string{"x": "y"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

func TestServeDebugSharedHelper(t *testing.T) {
	rec := metrics.New()
	rec.Counter("test.counter", metrics.Deterministic).Add(7)
	var logged []string
	dbg, err := ServeDebug("127.0.0.1:0", rec, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, "http://"+dbg.Addr()+"/debug/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug metrics: %d", resp.StatusCode)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Deterministic["test.counter"] != 7 {
		t.Fatalf("snapshot %+v misses test.counter=7", snap.Deterministic)
	}
	resp, body = get(t, "http://"+dbg.Addr()+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/vars: %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("flowdroid.metrics")) {
		t.Fatal("expvar misses flowdroid.metrics")
	}
	if err := dbg.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The listener is really gone.
	if _, err := http.Get("http://" + dbg.Addr() + "/debug/vars"); err == nil {
		t.Fatal("debug server still serving after Close")
	}
	if dbg.Close() != nil {
		t.Fatal("second Close errored")
	}
	_ = logged // no serve errors expected on the clean path
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/metrics"
)

// TestServiceSoak is the deterministic soak: concurrent clients push a
// generated corpus through the HTTP API against a small queue, so
// admission control, the concurrent executors and the drain all get
// exercised under the race detector. Asserted invariants:
//
//   - the queue depth never exceeds its bound;
//   - every 429 the clients saw is matched by the rejection counter
//     (rejections are observable, never silent);
//   - every admitted job completes (fair completion, no starvation);
//   - each job's canonical leak report is byte-identical to a one-shot
//     core run of the same app — resident-service results are
//     indistinguishable from CLI results;
//   - the drain finishes cleanly and leaks no goroutines.
func TestServiceSoak(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	rec := metrics.New()
	const queueSize = 4
	s := New(Config{
		QueueSize: queueSize,
		Analyses:  4,
		Recorder:  rec,
	})
	ts := httptest.NewServer(s.Handler(false))

	apps := append(
		appgen.GenerateCorpus(appgen.Play, 8, 42),
		appgen.GenerateCorpus(appgen.Malware, 8, 43)...)

	const clients = 4
	var (
		rejectsSeen atomic.Int64
		mu          sync.Mutex
		jobOf       = make(map[string]int) // job ID -> apps index
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(apps); i += clients {
				body, err := json.Marshal(Request{Files: apps[i].Files})
				if err != nil {
					t.Error(err)
					return
				}
				for {
					resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						// Queue full: a retriable rejection, never buffered
						// server-side. Back off and resubmit.
						resp.Body.Close()
						rejectsSeen.Add(1)
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusAccepted {
						t.Errorf("app %d: submit status %d", i, resp.StatusCode)
						resp.Body.Close()
						return
					}
					var sub SubmitResponse
					err = json.NewDecoder(resp.Body).Decode(&sub)
					resp.Body.Close()
					if err != nil {
						t.Errorf("app %d: %v", i, err)
						return
					}
					mu.Lock()
					jobOf[sub.ID] = i
					mu.Unlock()
					break
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(jobOf) != len(apps) {
		t.Fatalf("submitted %d jobs for %d apps", len(jobOf), len(apps))
	}

	// Fair completion: every admitted job finishes.
	for id := range jobOf {
		v := waitJob(t, s, id)
		if v.State != Done {
			t.Fatalf("job %s: state %v err %v", id, v.State, v.Err)
		}
		if v.Result.Status != core.Complete {
			t.Fatalf("job %s: status %v, want Complete", id, v.Result.Status)
		}
	}

	// Byte-identical canonical reports: fetch each service result over
	// HTTP and compare its leaks against a fresh one-shot run of the
	// same app (what cmd/flowdroid computes). JSON is compacted on both
	// sides to strip the envelope's nesting indentation only — the
	// field order and values must match byte for byte.
	for id, i := range jobOf {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Status string          `json:"status"`
			Leaks  json.RawMessage `json:"leaks"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}

		oneShot, err := core.AnalyzeFiles(context.Background(), apps[i].Files, core.DefaultOptions())
		if err != nil {
			t.Fatalf("one-shot %s: %v", apps[i].Name, err)
		}
		want, err := oneShot.Taint.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var gotC, wantC bytes.Buffer
		if err := json.Compact(&gotC, rep.Leaks); err != nil {
			t.Fatalf("job %s leaks: %v", id, err)
		}
		if err := json.Compact(&wantC, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
			t.Fatalf("app %s: service report differs from one-shot run\nservice: %s\none-shot: %s",
				apps[i].Name, gotC.Bytes(), wantC.Bytes())
		}
	}

	// Clean drain, then the invariants the counters carry.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	snap := rec.Snapshot()
	if peak := snap.Schedule["service.queue.depth.peak"]; peak > queueSize {
		t.Fatalf("queue depth peak %d exceeds the bound %d", peak, queueSize)
	}
	if got, want := snap.Schedule["service.rejected.queue_full"], rejectsSeen.Load(); got != want {
		t.Fatalf("rejection counter %d, clients saw %d 429s", got, want)
	}
	if got := snap.Schedule["service.completed"]; got != int64(len(apps)) {
		t.Fatalf("service.completed = %d, want %d", got, len(apps))
	}
	if got := snap.Schedule["service.failed"]; got != 0 {
		t.Fatalf("service.failed = %d, want 0", got)
	}

	// Zero leaked goroutines: everything the soak started — executors,
	// HTTP serving, client keep-alives — winds down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= goroutinesBefore {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before soak, %d after\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// submitAndWait pushes one app through the HTTP API and returns its
// canonical leak report (JSON-compacted) once the job is done.
func submitAndWait(t *testing.T, ts *httptest.Server, s *Server, files map[string]string) []byte {
	t.Helper()
	body, err := json.Marshal(Request{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, s, sub.ID)
	if v.State != Done {
		t.Fatalf("job %s: state %v err %v", sub.ID, v.State, v.Err)
	}
	if v.Result.Status != core.Complete {
		t.Fatalf("job %s: status %v, want Complete", sub.ID, v.Result.Status)
	}
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Leaks json.RawMessage `json:"leaks"`
	}
	err = json.NewDecoder(rresp.Body).Decode(&rep)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, rep.Leaks); err != nil {
		t.Fatal(err)
	}
	return compact.Bytes()
}

// oneShotLeaks is the oracle: a store-less one-shot core run's canonical
// leaks, compacted the same way the service endpoint's are.
func oneShotLeaks(t *testing.T, files map[string]string) []byte {
	t.Helper()
	res, err := core.AnalyzeFiles(context.Background(), files, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Taint.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		t.Fatal(err)
	}
	return compact.Bytes()
}

// TestServiceWarmResubmit models the daemon's warm re-analysis path: a
// corpus is submitted cold into a per-daemon summary store, then every
// app is resubmitted with a simulated update (2% of methods mutated).
// The warm results must be byte-identical to a store-less cold run of
// the updated app, and the daemon's metrics must show the store actually
// served summaries.
func TestServiceWarmResubmit(t *testing.T) {
	apps := appgen.GenerateCorpus(appgen.Play, 4, 7)
	updated := make([]map[string]string, len(apps))
	for i, app := range apps {
		files, n := appgen.MutateMethods(app.Files, 0.02, int64(i)+2)
		if n == 0 {
			t.Fatalf("app %s: mutation changed nothing", app.Name)
		}
		updated[i] = files
	}
	want := make([][]byte, len(apps))
	for i := range apps {
		want[i] = oneShotLeaks(t, updated[i])
	}

	rec := metrics.New()
	s := New(Config{
		QueueSize:  16,
		Analyses:   2,
		Recorder:   rec,
		SummaryDir: t.TempDir(),
	})
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	for i := range apps {
		submitAndWait(t, ts, s, apps[i].Files)
		if got := submitAndWait(t, ts, s, updated[i]); !bytes.Equal(got, want[i]) {
			t.Fatalf("app %s: warm resubmission report differs from cold run\nwarm: %s\ncold: %s",
				apps[i].Name, got, want[i])
		}
	}

	snap := rec.Snapshot()
	if snap.Deterministic["summary.store.hit"] == 0 {
		t.Fatal("resubmissions never hit the daemon's summary store")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServiceWarmStoreCorruption damages every stored summary file —
// cycling through a bit flip, a truncation, and a format-version rewrite
// — between a cold round and a resubmission round. Every damaged entry
// must degrade to a miss: the jobs still complete and their reports stay
// byte-identical to a store-less run, with the corruption visible only
// in the metrics.
func TestServiceWarmStoreCorruption(t *testing.T) {
	apps := appgen.GenerateCorpus(appgen.Play, 3, 11)
	dir := t.TempDir()

	cold := New(Config{QueueSize: 8, Analyses: 1, SummaryDir: dir})
	tsCold := httptest.NewServer(cold.Handler(false))
	for i := range apps {
		submitAndWait(t, tsCold, cold, apps[i].Files)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cold.Shutdown(ctx); err != nil {
		t.Fatalf("cold drain: %v", err)
	}
	tsCold.Close()

	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".sum") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch n % 3 {
		case 0:
			data[0] ^= 0xff // bit flip: unparseable JSON
		case 1:
			data = data[:len(data)/2] // truncation
		case 2:
			data = bytes.Replace(data, []byte(`"formatVersion": 1`), []byte(`"formatVersion": 99`), 1)
		}
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("cold round left no summary files to corrupt")
	}

	rec := metrics.New()
	warm := New(Config{QueueSize: 8, Analyses: 1, SummaryDir: dir, Recorder: rec})
	tsWarm := httptest.NewServer(warm.Handler(false))
	defer tsWarm.Close()
	for i := range apps {
		got := submitAndWait(t, tsWarm, warm, apps[i].Files)
		if want := oneShotLeaks(t, apps[i].Files); !bytes.Equal(got, want) {
			t.Fatalf("app %s: report over corrupted store differs from store-less run\ngot: %s\nwant: %s",
				apps[i].Name, got, want)
		}
	}

	snap := rec.Snapshot()
	if snap.Deterministic["summary.store.corrupt"] == 0 {
		t.Fatal("corrupted entries were not observed as corrupt")
	}
	if snap.Deterministic["summary.store.hit"] != 0 {
		t.Fatalf("corrupted store produced %d hits", snap.Deterministic["summary.store.hit"])
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := warm.Shutdown(wctx); err != nil {
		t.Fatalf("warm drain: %v", err)
	}
}

// TestServiceReflectionToggleInvalidatesStore: the reflection flag
// (core.Options.ResolveReflection) changes which call edges exist, so it
// is part of the summary-store config fingerprint and a reflection-off
// daemon must not replay summaries a reflection-on daemon recorded into
// the same store directory. Toggling degrades to a clean cold run, while
// resubmission under the unchanged mode still re-analyzes warm. On an app
// with no reflective sites the two modes' reports are byte-identical
// (the soundness envelope field is omitted when empty), which is exactly
// what lets this test compare them.
func TestServiceReflectionToggleInvalidatesStore(t *testing.T) {
	app := appgen.GenerateCorpus(appgen.Play, 1, 29)[0]
	dir := t.TempDir()

	// Round 1: cold, reflection on (the default), populating the store.
	on := New(Config{QueueSize: 8, Analyses: 1, SummaryDir: dir})
	tsOn := httptest.NewServer(on.Handler(false))
	want := submitAndWait(t, tsOn, on, app.Files)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := on.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tsOn.Close()

	// Round 2: reflection off, same store. The fingerprints differ, so
	// the submission must run fully cold (zero hits) yet report the same
	// leaks — this app has no reflective sites for the pass to matter on.
	rec := metrics.New()
	off := New(Config{QueueSize: 8, Analyses: 1, SummaryDir: dir,
		DisableReflection: true, Recorder: rec})
	tsOff := httptest.NewServer(off.Handler(false))
	defer tsOff.Close()
	if got := submitAndWait(t, tsOff, off, app.Files); !bytes.Equal(got, want) {
		t.Fatalf("reflection-off report differs from reflection-on:\n%s\nvs\n%s", got, want)
	}
	if hits := rec.Snapshot().Deterministic["summary.store.hit"]; hits != 0 {
		t.Fatalf("reflection-off run replayed %d reflection-on summaries; the fingerprint failed to invalidate", hits)
	}

	// Round 3: resubmit in the unchanged mode — now the store must serve.
	if got := submitAndWait(t, tsOff, off, app.Files); !bytes.Equal(got, want) {
		t.Fatal("warm reflection-off resubmission report differs from the cold run")
	}
	if rec.Snapshot().Deterministic["summary.store.hit"] == 0 {
		t.Fatal("same-mode resubmission never hit the store")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := off.Shutdown(ctx2); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

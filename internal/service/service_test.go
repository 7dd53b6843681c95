package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/metrics"
)

// genApp returns the files of one deterministic generated app.
func genApp(t *testing.T, p appgen.Profile, seed int64) map[string]string {
	t.Helper()
	apps := appgen.GenerateCorpus(p, 1, seed)
	if len(apps) != 1 {
		t.Fatalf("generated %d apps, want 1", len(apps))
	}
	return apps[0].Files
}

// waitJob polls until the job leaves the queued/running states.
func waitJob(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if v.State == Done || v.State == Failed {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobView{}
}

// waitRunning polls until the job is picked up by an executor.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if v.State != Queued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitAndComplete(t *testing.T) {
	rec := metrics.New()
	s := New(Config{QueueSize: 4, Analyses: 2, Recorder: rec})
	defer shutdown(t, s)

	view, err := s.Submit(Request{Files: genApp(t, appgen.Play, 7)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if view.State != Queued {
		t.Fatalf("state %v at submit, want queued", view.State)
	}
	done := waitJob(t, s, view.ID)
	if done.State != Done {
		t.Fatalf("state %v (err %v), want done", done.State, done.Err)
	}
	if done.Result.Status != core.Complete {
		t.Fatalf("status %v, want Complete", done.Result.Status)
	}
	if done.Finished.Before(done.Started) || done.Started.Before(done.Submitted) {
		t.Fatalf("timestamps out of order: %v / %v / %v", done.Submitted, done.Started, done.Finished)
	}
	snap := rec.Snapshot()
	if got := snap.Schedule["service.submitted"]; got != 1 {
		t.Fatalf("service.submitted = %d, want 1", got)
	}
	if got := snap.Schedule["service.completed"]; got != 1 {
		t.Fatalf("service.completed = %d, want 1", got)
	}
}

func TestSubmitEmptyPackageRejected(t *testing.T) {
	s := New(Config{})
	defer shutdown(t, s)
	if _, err := s.Submit(Request{}); err == nil {
		t.Fatal("empty package admitted")
	}
}

func TestQueueFullRejectedNotBuffered(t *testing.T) {
	rec := metrics.New()
	s := New(Config{QueueSize: 1, Analyses: 1, Recorder: rec})
	release := make(chan struct{})
	s.beforeJob = func(ctx context.Context, id string) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer shutdown(t, s)
	defer close(release)

	files := genApp(t, appgen.Play, 1)
	a, err := s.Submit(Request{Files: files})
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	waitRunning(t, s, a.ID) // a holds the single executor...
	b, err := s.Submit(Request{Files: files})
	if err != nil {
		t.Fatalf("submit b: %v", err) // ...b fills the queue of 1...
	}
	if _, err := s.Submit(Request{Files: files}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err %v, want ErrQueueFull", err) // ...c is rejected.
	}
	snap := rec.Snapshot()
	if got := snap.Schedule["service.rejected.queue_full"]; got != 1 {
		t.Fatalf("service.rejected.queue_full = %d, want 1", got)
	}
	if peak := snap.Schedule["service.queue.depth.peak"]; peak > 1 {
		t.Fatalf("queue depth peak %d exceeds the bound 1", peak)
	}

	release <- struct{}{} // let a finish; the executor then drains b
	release <- struct{}{}
	if v := waitJob(t, s, a.ID); v.State != Done {
		t.Fatalf("a ended %v, want done", v.State)
	}
	if v := waitJob(t, s, b.ID); v.State != Done {
		t.Fatalf("b ended %v, want done", v.State)
	}
}

func TestDrainFinishesQueuedJobs(t *testing.T) {
	rec := metrics.New()
	s := New(Config{QueueSize: 8, Analyses: 2, Recorder: rec})

	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		v, err := s.Submit(Request{Files: genApp(t, appgen.Play, seed)})
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		ids = append(ids, v.ID)
	}
	shutdown(t, s) // drain must run all four to completion

	for _, id := range ids {
		v, ok := s.Job(id)
		if !ok || v.State != Done {
			t.Fatalf("job %s after drain: ok=%v state=%v, want done", id, ok, v.State)
		}
		if v.Result.Status != core.Complete {
			t.Fatalf("job %s status %v after drain, want Complete", id, v.Result.Status)
		}
	}
	if _, err := s.Submit(Request{Files: genApp(t, appgen.Play, 9)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: err %v, want ErrDraining", err)
	}
	if got := rec.Snapshot().Schedule["service.rejected.draining"]; got != 1 {
		t.Fatalf("service.rejected.draining = %d, want 1", got)
	}
}

func TestForcedDrainCancelsInFlight(t *testing.T) {
	s := New(Config{QueueSize: 2, Analyses: 1})
	s.beforeJob = func(ctx context.Context, id string) { <-ctx.Done() } // wedge until cancelled

	v, err := s.Submit(Request{Files: genApp(t, appgen.Play, 3)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitRunning(t, s, v.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
	// The wedged job was deadline-cancelled, not lost: it finished with
	// the partial-result status the resilience layer defines.
	done, ok := s.Job(v.ID)
	if !ok || done.State != Done {
		t.Fatalf("job after forced drain: ok=%v state=%v err=%v", ok, done.State, done.Err)
	}
	if done.Result.Status != core.DeadlineExceeded {
		t.Fatalf("status %v after forced drain, want DeadlineExceeded", done.Result.Status)
	}
}

func TestShutdownIsIdempotent(t *testing.T) {
	s := New(Config{})
	shutdown(t, s)
	shutdown(t, s) // second drain returns immediately
}

// defectiveApp returns an app whose IR carries an Error-severity defect,
// so a linted analysis ends in InvalidProgram.
func defectiveApp(t *testing.T, seed int64) map[string]string {
	t.Helper()
	for _, d := range appgen.Defects() {
		if !d.Error {
			continue
		}
		app := appgen.GenerateCorpus(appgen.Play, 1, seed)[0]
		return d.Apply(app).Files
	}
	t.Fatal("no Error-severity defect in the registry")
	return nil
}

func TestBreakerTripsOnRepeatedInvalidProgram(t *testing.T) {
	rec := metrics.New()
	s := New(Config{QueueSize: 4, Analyses: 1, BreakerTrip: 2, BreakerCooldown: time.Hour, Recorder: rec})
	defer shutdown(t, s)

	files := defectiveApp(t, 5)
	for i := 0; i < 2; i++ {
		v, err := s.Submit(Request{Files: files, Lint: true})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		done := waitJob(t, s, v.ID)
		if done.State != Done || done.Result.Status != core.InvalidProgram {
			t.Fatalf("job %d: state %v status %v, want done/InvalidProgram", i, done.State, done.Result)
		}
	}
	_, err := s.Submit(Request{Files: files, Lint: true})
	var open *CircuitOpenError
	if !errors.As(err, &open) {
		t.Fatalf("third submit: err %v, want CircuitOpenError", err)
	}
	if open.RetryAfter <= 0 {
		t.Fatalf("RetryAfter %v, want positive", open.RetryAfter)
	}
	if !strings.Contains(open.Error(), open.Fingerprint) {
		t.Fatalf("error %q does not name the fingerprint", open.Error())
	}
	snap := rec.Snapshot()
	if got := snap.Schedule["service.breaker.tripped"]; got != 1 {
		t.Fatalf("service.breaker.tripped = %d, want 1", got)
	}
	if got := snap.Schedule["service.rejected.circuit_open"]; got != 1 {
		t.Fatalf("service.rejected.circuit_open = %d, want 1", got)
	}

	// A different app is unaffected by the poison fingerprint.
	v, err := s.Submit(Request{Files: genApp(t, appgen.Play, 11)})
	if err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	if done := waitJob(t, s, v.ID); done.State != Done || done.Result.Status != core.Complete {
		t.Fatalf("healthy app: state %v, want done/Complete", done.State)
	}
}

func TestRetainedJobsEvicted(t *testing.T) {
	s := New(Config{QueueSize: 8, Analyses: 1, RetainJobs: 2})
	defer shutdown(t, s)

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		v, err := s.Submit(Request{Files: genApp(t, appgen.Play, seed)})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, v.ID)
		waitJob(t, s, v.ID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest finished job not evicted with RetainJobs=2")
	}
	for _, id := range ids[1:] {
		if _, ok := s.Job(id); !ok {
			t.Fatalf("job %s evicted too early", id)
		}
	}
}

func TestFingerprint(t *testing.T) {
	a := map[string]string{"x": "1", "y": "2"}
	b := map[string]string{"y": "2", "x": "1"}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("fingerprint depends on map order")
	}
	c := map[string]string{"x": "1", "y": "3"}
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("different contents share a fingerprint")
	}
	// The name/content boundary is part of the hash.
	d := map[string]string{"xy": "", "z": ""}
	e := map[string]string{"x": "y", "z": ""}
	if Fingerprint(d) == Fingerprint(e) {
		t.Fatal("fingerprint boundary ambiguity")
	}
}

func TestShutdownLeavesNoExecutors(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{QueueSize: 4, Analyses: 4})
	for seed := int64(1); seed <= 4; seed++ {
		if _, err := s.Submit(Request{Files: genApp(t, appgen.Play, seed)}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	shutdown(t, s)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
}

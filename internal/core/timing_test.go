package core

// Regression tests for timing attribution: a panic or cancellation
// during the taint stage must still charge the elapsed solve time to
// PassTimes["taint"] (not fold it into the setup passes), and a run cut
// short during setup must carry no taint time at all.

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowdroid/internal/apk"
	"flowdroid/internal/metrics"
	"flowdroid/internal/testapps"
)

// timingApp is a small app that reaches the taint stage quickly;
// attribution tests only need the stage transitions, not load.
func timingApp(t *testing.T) *apk.App {
	t.Helper()
	app, err := apk.LoadFiles(testapps.LeakageApp)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestPanicDuringTaintChargesTaintTime: a panic raised inside the taint
// stage must yield Recovered with stage "taint", a nonzero
// PassTimes["taint"], and setup passes that were timed too. The panic is
// forced by a context whose Err panics once the pipeline's taint span
// has begun: the solver polls the context after seeding.
func TestPanicDuringTaintChargesTaintTime(t *testing.T) {
	app := timingApp(t)
	ctx := &panicOnErr{Context: context.Background()}
	rec := metrics.New()
	rec.SetTrace(metrics.NewTrace(&onTaintSpan{fn: func() { ctx.armed.Store(true) }}))

	res, err := AnalyzeApp(metrics.Into(ctx, rec), app, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Recovered {
		t.Fatalf("status = %v, want %v", res.Status, Recovered)
	}
	if res.Failure == nil || res.Failure.Stage != "taint" {
		t.Fatalf("failure = %+v, want stage %q", res.Failure, "taint")
	}
	if d := res.PassTimes["taint"]; d <= 0 {
		t.Errorf("PassTimes[taint] = %v after a panic mid-solve; the solve's elapsed time was lost", d)
	}
	if d := setupTime(res); d <= 0 {
		t.Errorf("setup passes timed %v, want > 0 (setup did run)", d)
	}
}

// panicOnErr is a context whose Err panics once armed.
type panicOnErr struct {
	context.Context
	armed atomic.Bool
}

func (c *panicOnErr) Err() error {
	if c.armed.Load() {
		panic("injected: context polled inside the taint solve")
	}
	return c.Context.Err()
}

// onTaintSpan is an io.Writer trace sink that calls fn once, the moment
// the pipeline's taint span begins — a deterministic way to make an
// event strike inside the solve.
type onTaintSpan struct {
	mu sync.Mutex
	fn func()
}

func (w *onTaintSpan) Write(p []byte) (int, error) {
	if strings.Contains(string(p), `"ev":"B"`) && strings.Contains(string(p), `"name":"pipeline.taint"`) {
		w.mu.Lock()
		if w.fn != nil {
			w.fn()
			w.fn = nil
		}
		w.mu.Unlock()
	}
	return len(p), nil
}

// TestCancelDuringTaintChargesTaintTime: a context cancelled while the
// solver is running must yield DeadlineExceeded with PassTimes["taint"]
// > 0.
func TestCancelDuringTaintChargesTaintTime(t *testing.T) {
	app := timingApp(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	rec := metrics.New()
	rec.SetTrace(metrics.NewTrace(&onTaintSpan{fn: cancel}))

	res, err := AnalyzeApp(metrics.Into(ctx, rec), app, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != DeadlineExceeded {
		t.Fatalf("status = %v, want %v", res.Status, DeadlineExceeded)
	}
	if d := res.PassTimes["taint"]; d <= 0 {
		t.Errorf("PassTimes[taint] = %v after cancellation mid-solve; solver time was lost", d)
	}
}

// TestCancelDuringSetupLeavesTaintTimeZero: a context that is already
// cancelled truncates the pipeline before the taint stage, so all the
// elapsed time belongs to setup and PassTimes has no taint entry.
func TestCancelDuringSetupLeavesTaintTimeZero(t *testing.T) {
	app := timingApp(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := AnalyzeApp(ctx, app, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != DeadlineExceeded {
		t.Fatalf("status = %v, want %v", res.Status, DeadlineExceeded)
	}
	if d, ok := res.PassTimes["taint"]; ok {
		t.Errorf("PassTimes[taint] = %v for a run truncated during setup, want absent", d)
	}
	if d := setupTime(res); d <= 0 {
		t.Errorf("setup passes timed %v, want > 0", d)
	}
}

// setupTime is the -stats setup figure: every pass but taint.
func setupTime(res *Result) time.Duration {
	var d time.Duration
	for pass, pd := range res.PassTimes {
		if pass != "taint" {
			d += pd
		}
	}
	return d
}

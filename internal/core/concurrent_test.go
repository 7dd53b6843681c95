// Concurrency coverage for the service use case: many analyses in one
// process sharing a metrics.Recorder — and, for repeat submissions of
// one app, the app's loaded program and its cached dummy main. The
// corpus driver shares a recorder across apps but only sequentially;
// these tests run the sharing under the race detector the way
// internal/service does it.
//
// The tests live in package core_test so they can drive generated apps
// through the public entry points (appgen imports core).
package core_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/metrics"
)

// TestConcurrentAnalyzeSharedRecorder runs one recorder under many
// concurrent pipelines over distinct apps — every counter, gauge,
// histogram and span write lands on shared instruments — and asserts
// the results and the aggregate counters are unharmed.
func TestConcurrentAnalyzeSharedRecorder(t *testing.T) {
	const n = 8
	rec := metrics.New()
	ctx := metrics.Into(context.Background(), rec)
	apps := appgen.GenerateCorpus(appgen.Malware, n, 77)

	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	errs := make([]error, n)
	for i := range apps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = core.AnalyzeFiles(ctx, apps[i].Files, core.DefaultOptions())
		}(i)
	}
	// Snapshots taken mid-flight must be consistent, not crash, and not
	// disturb the writers (the /metrics endpoint does exactly this).
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				rec.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)

	for i := range apps {
		if errs[i] != nil {
			t.Fatalf("app %s: %v", apps[i].Name, errs[i])
		}
		if results[i].Status != core.Complete {
			t.Fatalf("app %s: status %v", apps[i].Name, results[i].Status)
		}
		if got, want := len(results[i].Leaks()), apps[i].InjectedLeaks; got != want {
			t.Fatalf("app %s: %d leaks, ground truth %d", apps[i].Name, got, want)
		}
	}
	snap := rec.Snapshot()
	if got := snap.Timings["pipeline.taint"].Count; got != n {
		t.Fatalf("pipeline.taint timing count = %d across %d concurrent apps, want %d", got, n, n)
	}
	if got := snap.Timings["pipeline.scene"].Count; got != n {
		t.Fatalf("pipeline.scene timing count = %d, want %d", got, n)
	}
}

// TestConcurrentAnalyzeSameAppSharedScene re-analyzes one loaded app
// concurrently. After a warm-up run has generated the dummy main, every
// later pipeline over the same *apk.App reuses the shared program and
// its cached entry point read-only — the cross-request reuse a resident
// service wants for repeat submissions — so concurrent runs must be
// race-free and their canonical reports identical.
func TestConcurrentAnalyzeSameAppSharedScene(t *testing.T) {
	app, err := apk.LoadFiles(insecurebank.Files)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.New()
	ctx := metrics.Into(context.Background(), rec)
	opts := core.DefaultOptions()

	warm, err := core.AnalyzeApp(ctx, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != core.Complete {
		t.Fatalf("warm-up status %v", warm.Status)
	}
	want, err := warm.Taint.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	var wg sync.WaitGroup
	reports := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := core.AnalyzeApp(ctx, app, opts)
			if err != nil {
				errs[i] = err
				return
			}
			reports[i], errs[i] = res.Taint.CanonicalJSON()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !bytes.Equal(reports[i], want) {
			t.Fatalf("run %d: canonical report differs from the warm-up run", i)
		}
	}
}

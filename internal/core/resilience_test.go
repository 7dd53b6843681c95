package core_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/metrics"
	"flowdroid/internal/summarystore"
)

// stressApp generates the oversized appgen app the resilience tests run
// against: expensive enough that a millisecond deadline or a small
// propagation budget interrupts the analysis mid-flight. The profile
// doubles appgen.Stress: with the scene's cached hierarchy the stock
// stress app completes in under a millisecond on a warm run, which would
// let the deadline test race with a legitimately finished analysis.
func stressApp(t testing.TB) appgen.App {
	t.Helper()
	p := appgen.Stress
	p.Activities = appgen.MinMax(24, 24)
	p.Services = appgen.MinMax(8, 8)
	p.Receivers = appgen.MinMax(6, 6)
	p.Helpers = appgen.MinMax(50, 50)
	p.NoiseMethods = appgen.MinMax(10, 10)
	p.NoiseStmts = appgen.MinMax(20, 30)
	return appgen.Generate(rand.New(rand.NewSource(99)), p, 0)
}

// TestDeadlineExceededPromptly: a 1ms deadline on the stress app must
// yield a DeadlineExceeded result almost immediately — the pipeline polls
// the context instead of finishing a multi-second solve first.
func TestDeadlineExceededPromptly(t *testing.T) {
	app := stressApp(t)
	goroutinesBefore := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := core.AnalyzeFiles(ctx, app.Files, core.DefaultOptions())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.DeadlineExceeded {
		t.Fatalf("status = %v, want %v", res.Status, core.DeadlineExceeded)
	}
	// The bound separates "stopped at the next context poll" from "ran
	// the multi-second solve to completion". It has to absorb the fixed
	// parse+link cost paid before the first poll, which the race
	// detector on a loaded host stretches past 100ms.
	if elapsed > time.Second {
		t.Errorf("returned after %v; a 1ms deadline must stop the run within 1s", elapsed)
	}
	if res.Taint == nil {
		t.Fatal("truncated result has nil Taint")
	}
	t.Logf("partial counters after %v: callgraph edges %d, pta propagations %d, taint propagations %d, path edges %d",
		elapsed, res.Counters.CallGraphEdges, res.Counters.PTAPropagations,
		res.Counters.Propagations, res.Counters.PathEdges)

	// The truncated run must not leave solver goroutines behind.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > goroutinesBefore {
		t.Errorf("goroutine leak: %d before analysis, %d after", goroutinesBefore, after)
	}
}

// TestBudgetExhausted: a small propagation budget stops the taint solve
// with the partial counters recorded.
func TestBudgetExhausted(t *testing.T) {
	app := stressApp(t)
	opts := core.DefaultOptions()
	opts.MaxPropagations = 500
	res, err := core.AnalyzeFiles(context.Background(), app.Files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.BudgetExhausted {
		t.Fatalf("status = %v, want %v", res.Status, core.BudgetExhausted)
	}
	if res.Counters.Propagations < 500 {
		t.Errorf("propagations = %d, want >= 500 (budget must be spent before exhaustion)", res.Counters.Propagations)
	}
	if res.Counters.CallGraphEdges == 0 {
		t.Error("call graph stage completed but its counter is zero")
	}
}

// TestGracefulDegradation: with -degrade semantics enabled, a budget-
// exhausted run walks the ladder (shorter access paths) and records each
// rung it applied.
func TestGracefulDegradation(t *testing.T) {
	app := stressApp(t)
	opts := core.DefaultOptions()
	opts.MaxPropagations = 500
	opts.Degrade = true
	res, err := core.AnalyzeFiles(context.Background(), app.Files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("budget-exhausted run with Degrade on recorded no downgrade rungs")
	}
	if res.Degraded[0] != "ap-length=3" {
		t.Errorf("first rung = %q, want ap-length=3 (cheapest precision loss first)", res.Degraded[0])
	}

	// A run that never exhausts anything must not degrade.
	clean, err := core.AnalyzeFiles(context.Background(), insecurebank.Files, func() core.Options {
		o := core.DefaultOptions()
		o.Degrade = true
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	if clean.Status != core.Complete || len(clean.Degraded) != 0 {
		t.Errorf("unbounded run: status %v, degraded %v; want Complete with no downgrades", clean.Status, clean.Degraded)
	}
}

// TestRecoveredFromStagePanic: a panic inside a pipeline stage becomes a
// Recovered result carrying the stage name and stack, not a crash and not
// an error.
func TestRecoveredFromStagePanic(t *testing.T) {
	// An app with no manifest makes the callbacks stage dereference nil.
	res, err := core.AnalyzeApp(context.Background(), &apk.App{}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Recovered {
		t.Fatalf("status = %v, want %v", res.Status, core.Recovered)
	}
	if res.Failure == nil {
		t.Fatal("Recovered result has nil Failure")
	}
	if res.Failure.Stage != "callbacks" {
		t.Errorf("failure stage = %q, want callbacks", res.Failure.Stage)
	}
	if len(res.Failure.Stack) == 0 {
		t.Error("failure carries no stack trace")
	}
	if res.Taint == nil {
		t.Error("Recovered result has nil Taint")
	}
}

// TestLoaderErrorPaths: malformed inputs surface as wrapped errors from
// the loading layer, never as panics or nil results.
func TestLoaderErrorPaths(t *testing.T) {
	opts := core.DefaultOptions()
	ctx := context.Background()

	t.Run("corrupt zip", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.zip")
		if err := os.WriteFile(path, []byte("this is not a zip archive"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := core.AnalyzeZip(ctx, path, opts); err == nil {
			t.Fatal("corrupt zip loaded without error")
		}
	})

	t.Run("missing manifest", func(t *testing.T) {
		if _, err := core.AnalyzeDir(ctx, t.TempDir(), opts); err == nil {
			t.Fatal("empty package loaded without error")
		}
	})

	t.Run("bad layout xml", func(t *testing.T) {
		files := make(map[string]string, len(insecurebank.Files))
		for k, v := range insecurebank.Files {
			files[k] = v
		}
		files["res/layout/login.xml"] = "<LinearLayout><EditText" // truncated mid-tag
		if _, err := core.AnalyzeFiles(ctx, files, opts); err == nil {
			t.Fatal("unparsable layout loaded without error")
		}
	})

	t.Run("truncated ir source", func(t *testing.T) {
		files := make(map[string]string, len(insecurebank.Files))
		var irFile string
		for k, v := range insecurebank.Files {
			files[k] = v
			if irFile == "" && filepath.Ext(k) == ".ir" {
				irFile = k
			}
		}
		if irFile == "" {
			t.Fatal("insecurebank has no .ir files")
		}
		files[irFile] = files[irFile][:len(files[irFile])/2]
		if _, err := core.AnalyzeFiles(ctx, files, opts); err == nil {
			t.Fatal("truncated IR source loaded without error")
		}
	})
}

// TestSummaryFlushErrorCounted: a summary store whose write-back fails
// (here: rooted under a regular file, so no directory can be created)
// leaves the analysis Complete but says so in the result's counters, not
// only in an optional recorder. A writable store reports no error.
func TestSummaryFlushErrorCounted(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		root string
		want int
	}{
		{"unwritable", filepath.Join(file, "store"), 1},
		{"writable", filepath.Join(tmp, "store"), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := metrics.New()
			opts := core.DefaultOptions()
			opts.SummaryStore = summarystore.Open(tc.root)
			res, err := core.AnalyzeFiles(metrics.Into(context.Background(), rec), insecurebank.Files, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != core.Complete {
				t.Fatalf("status %v, want Complete: the store never fails an analysis", res.Status)
			}
			if res.Counters.SummariesPersisted == 0 {
				t.Fatal("run recorded no summaries to write back")
			}
			if got := res.Counters.SummaryFlushErrors; got != tc.want {
				t.Errorf("SummaryFlushErrors = %d, want %d", got, tc.want)
			}
			if got := rec.Snapshot().Schedule["summary.store.flush_errors"]; got != int64(tc.want) {
				t.Errorf("summary.store.flush_errors = %d, want %d", got, tc.want)
			}
		})
	}
}

package appgen

// Regression tests for the per-outcome wall-time rollup split: the
// headline corpus time aggregate must describe completed apps only,
// with panic-recovered and deadline-truncated apps rolled up under
// their own outcome keys instead of silently blended into the means.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowdroid/internal/core"
	"flowdroid/internal/summarystore"
)

// TestRollupObserve: the rollup arithmetic itself.
func TestRollupObserve(t *testing.T) {
	var r TimeRollup
	r.observe("a", 4*time.Millisecond)
	r.observe("b", 10*time.Millisecond)
	r.observe("c", 1*time.Millisecond)
	if r.Apps != 3 || r.Total != 15*time.Millisecond {
		t.Errorf("apps %d total %v, want 3 and 15ms", r.Apps, r.Total)
	}
	if r.Min != 1*time.Millisecond || r.Max != 10*time.Millisecond || r.Slowest != "b" {
		t.Errorf("min %v max %v slowest %q, want 1ms/10ms/b", r.Min, r.Max, r.Slowest)
	}
	if r.Avg() != 5*time.Millisecond {
		t.Errorf("avg = %v, want 5ms", r.Avg())
	}
	if (TimeRollup{}).Avg() != 0 {
		t.Error("empty rollup Avg must be 0")
	}
}

// TestCorpusRollupSplitOnPanic: an injected panic must put the victim's
// wall time into the Recovered rollup and keep it out of the completed
// aggregate — which must cover exactly the other apps.
func TestCorpusRollupSplitOnPanic(t *testing.T) {
	const n, seed = 6, 7
	apps := GenerateCorpus(Play, n, seed)
	victim := apps[2].Name

	stats, err := RunCorpusWith(context.Background(), Play, n, seed, core.DefaultOptions(), RunOptions{FaultInject: victim})
	if err != nil {
		t.Fatal(err)
	}
	comp := stats.Times[core.Complete.String()]
	if comp.Apps != n-1 {
		t.Fatalf("completed rollup = %+v, want %d apps", comp, n-1)
	}
	rec := stats.Times[core.Recovered.String()]
	if rec.Apps != 1 || rec.Slowest != victim {
		t.Fatalf("recovered rollup = %+v, want the victim %s alone", rec, victim)
	}
	if comp.Slowest == victim {
		t.Errorf("the completed rollup names the panicked victim; its time leaked into the completed aggregate")
	}
	if out := stats.Render(); !strings.Contains(out, "analysis time (Recovered)") || !strings.Contains(out, "analysis time (completed apps)") {
		t.Errorf("summary does not render the Recovered and completed rollups:\n%s", out)
	}
}

// TestCorpusRollupSplitOnTimeout: with every app timed out, the
// completed rollup stays empty, the DeadlineExceeded rollup holds all
// apps, and the summary has no completed-apps time line (its min, max
// and slowest app would be empty).
func TestCorpusRollupSplitOnTimeout(t *testing.T) {
	const n = 3
	stats, err := RunCorpusWith(context.Background(), Play, n, 7, core.DefaultOptions(), RunOptions{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if comp := stats.Times[core.Complete.String()]; comp != (TimeRollup{}) {
		t.Errorf("completed rollup polluted by timed-out apps: %+v", comp)
	}
	to := stats.Times[core.DeadlineExceeded.String()]
	if to.Apps != n {
		t.Fatalf("deadline rollup = %+v, want all %d apps", to, n)
	}
	if out := stats.Render(); strings.Contains(out, "completed apps") {
		t.Errorf("summary renders a completed-apps time line with no completed app:\n%s", out)
	}
}

// TestCorpusPassTimeAggregation: a clean corpus run must surface a
// slowest-pass table whose entries cover the pipeline's passes.
func TestCorpusPassTimeAggregation(t *testing.T) {
	stats, err := RunCorpusWith(context.Background(), Play, 3, 7, core.DefaultOptions(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PassTimes) == 0 {
		t.Fatal("no pass times aggregated")
	}
	for _, pass := range []string{"callgraph", "taint"} {
		if _, ok := stats.PassTimes[pass]; !ok {
			t.Errorf("pass %q missing from the aggregated times %v", pass, stats.PassTimes)
		}
	}
	if !strings.Contains(stats.Render(), "slowest passes") {
		t.Errorf("summary does not render the slowest-pass table:\n%s", stats.Render())
	}
}

// TestCorpusReportsFlushErrors: a corpus whose summary store cannot be
// written (rooted under a regular file) still analyzes every app, and the
// rollup says so: the summed counters carry one write-back error per app,
// and the summary renders the store line and the error line.
func TestCorpusReportsFlushErrors(t *testing.T) {
	const n = 4
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.SummaryStore = summarystore.Open(filepath.Join(file, "store"))
	stats, err := RunCorpusWith(context.Background(), Malware, n, 7, opts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Times[core.Complete.String()].Apps; got != n {
		t.Fatalf("%d of %d apps complete: a failed write-back must not fail an analysis", got, n)
	}
	if got := stats.Counters.SummaryFlushErrors; got != n {
		t.Errorf("SummaryFlushErrors = %d, want %d (one per app)", got, n)
	}
	out := stats.Render()
	for _, want := range []string{"summary store: 0 hit(s)", "summary store: 4 write-back error(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
}

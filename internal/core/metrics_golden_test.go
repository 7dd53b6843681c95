package core_test

// Golden-file schema test for the -metrics JSON surface: the set of
// metric names each section of the snapshot exposes after a full
// pipeline run is pinned in testdata/metrics_schema.golden. Values are
// deliberately excluded — timings vary run to run — but the *names* are
// a contract: renaming or dropping one silently breaks every dashboard
// and script consuming the snapshot, which is exactly what this test
// makes loud. Refresh after an intentional change with:
//
//	UPDATE_GOLDEN=1 go test ./internal/core -run MetricsSnapshotSchema

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"flowdroid/internal/apk"
	"flowdroid/internal/core"
	"flowdroid/internal/metrics"
	"flowdroid/internal/testapps"
)

const metricsGolden = "testdata/metrics_schema.golden"

// schemaOf reduces a snapshot to its shape: section → sorted key names.
func schemaOf(s metrics.Snapshot) map[string][]string {
	keys := func(n int, add func(out []string) []string) []string {
		out := add(make([]string, 0, n))
		sort.Strings(out)
		return out
	}
	return map[string][]string{
		"deterministic": keys(len(s.Deterministic), func(out []string) []string {
			for k := range s.Deterministic {
				out = append(out, k)
			}
			return out
		}),
		"schedule": keys(len(s.Schedule), func(out []string) []string {
			for k := range s.Schedule {
				out = append(out, k)
			}
			return out
		}),
		"timings": keys(len(s.Timings), func(out []string) []string {
			for k := range s.Timings {
				out = append(out, k)
			}
			return out
		}),
		"histograms": keys(len(s.Histograms), func(out []string) []string {
			for k := range s.Histograms {
				out = append(out, k)
			}
			return out
		}),
	}
}

func TestMetricsSnapshotSchema(t *testing.T) {
	rec := metrics.New()
	opts := core.DefaultOptions()
	// Two workers are pinned so the schedule section's per-worker keys
	// (taint.worker<i>.drained) are stable regardless of the host.
	opts.Taint.Workers = 2
	res, err := core.AnalyzeFiles(metrics.Into(context.Background(), rec), testapps.LeakageApp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Complete {
		t.Fatalf("status %v, want Complete", res.Status)
	}

	got, err := json.MarshalIndent(schemaOf(rec.Snapshot()), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(metricsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", metricsGolden)
		return
	}

	want, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatalf("%v (refresh with UPDATE_GOLDEN=1 go test ./internal/core -run MetricsSnapshotSchema)", err)
	}
	if string(got) != string(want) {
		t.Errorf("metrics snapshot schema drifted from %s.\ngot:\n%s\nwant:\n%s\nIf the change is intentional, refresh the golden file with UPDATE_GOLDEN=1.",
			metricsGolden, got, want)
	}
}

// TestSpanSumMatchesStageTimes: PassTimes is the run's only timer, so it
// must account for the run's wall time, and the per-pass spans must agree
// with it. Σ PassTimes covers at least 2/3 of the AnalyzeApp wall time
// (the rest is the glue between passes); the pipeline.* spans enclose
// exactly the regions PassTimes charges, so their sum sits at or just
// above Σ PassTimes — far below the 2x a pass timed under two spans
// would show.
func TestSpanSumMatchesStageTimes(t *testing.T) {
	app, err := apk.LoadFiles(testapps.LeakageApp)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.New()
	start := time.Now()
	res, err := core.AnalyzeApp(metrics.Into(context.Background(), rec), app, core.DefaultOptions())
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Complete {
		t.Fatalf("status %v, want Complete", res.Status)
	}
	var passes time.Duration
	for _, d := range res.PassTimes {
		passes += d
	}
	if passes < wall*2/3 {
		t.Errorf("PassTimes sum to %v of a %v AnalyzeApp run, want at least 2/3: %v", passes, wall, res.PassTimes)
	}
	var spanUS, spans int64
	for name, ts := range rec.Snapshot().Timings {
		if strings.HasPrefix(name, "pipeline.") {
			spanUS += ts.TotalUS
			spans++
		}
	}
	// Each span name's total is truncated to whole microseconds.
	passUS := passes.Microseconds()
	if spanUS < passUS-spans || spanUS > passUS*3/2+spans {
		t.Errorf("pipeline spans sum to %dµs, want within noise of Σ PassTimes = %dµs", spanUS, passUS)
	}
}

package core_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/metrics"
	"flowdroid/internal/summarystore"
)

// TestRecorderAgreesWithCounters: the result is the run's only record,
// and the recorder series backed by it are published from it. On a fresh
// recorder, every Counters field with a metric tag must equal its series
// and the pipeline.<pass> timings must name exactly the passes in
// Result.PassTimes, one run each, across whole-program, query,
// reflective, store, flush-failure and budget-exhausted runs.
func TestRecorderAgreesWithCounters(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	store := summarystore.Open(filepath.Join(tmp, "store"))
	reflective := appgen.GenerateCorpus(appgen.Reflection, 1, 3)[0].Files

	for _, tc := range []struct {
		name  string
		files map[string]string
		opts  func(*core.Options)
		check func(*core.Result) string
	}{
		{"whole-program", insecurebank.Files, func(*core.Options) {}, nil},
		{"sink-query", insecurebank.Files,
			func(o *core.Options) { o.Query = core.Query{Sinks: []string{"sms"}} },
			func(r *core.Result) string { return nonzero(r.Counters.ConeMethods, "ConeMethods") }},
		{"reflective", reflective, func(*core.Options) {},
			func(r *core.Result) string { return nonzero(r.Counters.ReflectionResolved, "ReflectionResolved") }},
		{"store-cold", insecurebank.Files,
			func(o *core.Options) { o.SummaryStore = store },
			func(r *core.Result) string { return nonzero(r.Counters.SummariesPersisted, "SummariesPersisted") }},
		{"store-warm", insecurebank.Files,
			func(o *core.Options) { o.SummaryStore = store },
			func(r *core.Result) string { return nonzero(r.Counters.SummaryHits, "SummaryHits") }},
		{"flush-failure", insecurebank.Files,
			func(o *core.Options) { o.SummaryStore = summarystore.Open(filepath.Join(file, "store")) },
			func(r *core.Result) string { return nonzero(r.Counters.SummaryFlushErrors, "SummaryFlushErrors") }},
		{"budget-exhausted", insecurebank.Files,
			func(o *core.Options) { o.MaxPropagations = 50 },
			func(r *core.Result) string {
				if r.Status != core.BudgetExhausted {
					return "status " + r.Status.String()
				}
				return ""
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := metrics.New()
			opts := core.DefaultOptions()
			tc.opts(&opts)
			res, err := core.AnalyzeFiles(metrics.Into(context.Background(), rec), tc.files, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				if msg := tc.check(res); msg != "" {
					t.Fatalf("run does not exercise its case: %s", msg)
				}
			}
			checkRecord(t, res, rec.Snapshot())
		})
	}
}

func nonzero(n int, what string) string {
	if n == 0 {
		return what + " = 0"
	}
	return ""
}

// checkRecord compares a snapshot with the result it was published from.
func checkRecord(t *testing.T, res *core.Result, snap metrics.Snapshot) {
	t.Helper()
	// The two solver effort series, checked by name.
	if got, want := snap.Deterministic["taint.propagations"], int64(res.Counters.Propagations); got != want {
		t.Errorf("taint.propagations = %d, want Counters.Propagations = %d", got, want)
	}
	if got, want := snap.Deterministic["pta.propagations"], int64(res.Counters.PTAPropagations); got != want {
		t.Errorf("pta.propagations = %d, want Counters.PTAPropagations = %d", got, want)
	}
	v := reflect.ValueOf(res.Counters)
	tagged := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		tagged++
		opts := strings.Split(tag, ",")
		section := snap.Deterministic
		if slices.Contains(opts[1:], "schedule") {
			section = snap.Schedule
		}
		if got, want := section[opts[0]], v.Field(i).Int(); got != want {
			t.Errorf("series %s = %d, want Counters.%s = %d", opts[0], got, f.Name, want)
		}
	}
	if tagged == 0 {
		t.Error("no Counters field declares its metric name")
	}
	for name := range res.PassTimes {
		if got := snap.Timings["pipeline."+name].Count; got != 1 {
			t.Errorf("pipeline.%s timing count = %d, want 1 (PassTimes has the pass)", name, got)
		}
	}
	for key := range snap.Timings {
		name, ok := strings.CutPrefix(key, "pipeline.")
		if !ok {
			continue
		}
		if _, ok := res.PassTimes[name]; !ok {
			t.Errorf("timing %s has no pass %q in Result.PassTimes %v", key, name, res.PassTimes)
		}
	}
}

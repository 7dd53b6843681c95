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
// and every pipeline.<pass>.runs/hits must equal Result.Passes, across
// whole-program, query, reflective, store, flush-failure and degraded
// runs. On the degraded run the series describe the final attempt, as
// the counters do.
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
		{"degraded", insecurebank.Files,
			func(o *core.Options) { o.MaxPropagations, o.Degrade = 50, true },
			func(r *core.Result) string { return nonzero(len(r.Degraded), "len(Degraded)") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := metrics.New()
			opts := core.DefaultOptions()
			opts.Taint.Workers = 1
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
	// The two series a degraded run used to sum over every attempt.
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
	for name, st := range res.Passes {
		if got := snap.Deterministic["pipeline."+name+".runs"]; got != int64(st.Runs) {
			t.Errorf("pipeline.%s.runs = %d, want Passes[%s].Runs = %d", name, got, name, st.Runs)
		}
		if got := snap.Deterministic["pipeline."+name+".hits"]; got != int64(st.Hits) {
			t.Errorf("pipeline.%s.hits = %d, want Passes[%s].Hits = %d", name, got, name, st.Hits)
		}
	}
	for key := range snap.Deterministic {
		rest, ok := strings.CutPrefix(key, "pipeline.")
		if !ok {
			continue
		}
		name := rest[:strings.LastIndexByte(rest, '.')]
		if _, ok := res.Passes[name]; !ok {
			t.Errorf("series %s has no pass %q in Result.Passes %v", key, name, res.Passes)
		}
	}
}

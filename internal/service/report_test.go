package service

// Golden-file schema test for the result envelope: the JSON key set of
// ResultReport, taken over runs that together set every counter but
// summaryFlushErrors (a failed disk write) and every optional field but
// "failure" (a recovered panic), is pinned in
// testdata/report_schema.golden. The
// daemon's job results and cmd/flowdroid -json both encode this type,
// so a renamed or dropped key breaks both surfaces' consumers at once;
// this test makes that loud. Values are excluded. Refresh after an
// intentional change with:
//
//	UPDATE_GOLDEN=1 go test ./internal/service -run TestReportSchema

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/summarystore"
)

const reportGolden = "testdata/report_schema.golden"

// schemaKeys adds the dotted key paths of a decoded JSON value to keys.
// Array elements share the path "[]".
func schemaKeys(v any, path string, keys map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, sub := range v {
			p := k
			if path != "" {
				p = path + "." + k
			}
			keys[p] = true
			schemaKeys(sub, p, keys)
		}
	case []any:
		for _, sub := range v {
			schemaKeys(sub, path+"[]", keys)
		}
	}
}

func TestReportSchema(t *testing.T) {
	keys := make(map[string]bool)
	analyze := func(name string, files map[string]string, opts core.Options) *core.Result {
		t.Helper()
		res, err := core.AnalyzeFiles(context.Background(), files, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := json.Marshal(ResultReport(res))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		schemaKeys(v, "", keys)
		return res
	}

	// A sink query: the cone counters.
	query := core.DefaultOptions()
	query.Query.Sinks = []string{"sms"}
	analyze("query", genApp(t, appgen.Malware, 1), query)

	// A reflective app: the reflection counters and the soundness report.
	analyze("reflection", genApp(t, appgen.Reflection, 1), core.DefaultOptions())

	// A linted app with a warning-only defect: the lint diagnostics.
	lint := core.DefaultOptions()
	lint.Lint = true
	d, ok := appgen.DefectByName("maybeundef")
	if !ok {
		t.Fatal("defect maybeundef not registered")
	}
	analyze("lint", d.Apply(appgen.GenerateCorpus(appgen.Play, 1, 1)[0]).Files, lint)

	// A budget-exhausted run: its status and partial counters.
	budget := core.DefaultOptions()
	budget.MaxPropagations = 5
	if res := analyze("budget", genApp(t, appgen.Play, 1), budget); res.Status != core.BudgetExhausted {
		t.Fatalf("budget run ended %v, want BudgetExhausted", res.Status)
	}

	// A summary store: a cold run persists summaries (misses, explored
	// methods); a mutated version of the app replays the unchanged ones
	// and invalidates the changed ones; with every stored file then
	// corrupted, the original app reads corrupt entries.
	dir := t.TempDir()
	stored := core.DefaultOptions()
	stored.SummaryStore = summarystore.Open(dir)
	app := genApp(t, appgen.Play, 1)
	analyze("cold", app, stored)
	updated, _ := appgen.MutateMethods(app, 0.05, 3)
	if res := analyze("warm", updated, stored); res.Counters.SummaryInvalidated == 0 {
		t.Fatal("warm run invalidated no stored summary")
	}
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".sum") {
			return err
		}
		n++
		return os.WriteFile(path, []byte("{"), 0o644)
	})
	if err != nil || n == 0 {
		t.Fatalf("store holds no summaries to corrupt (%v)", err)
	}
	if res := analyze("corrupt", app, stored); res.Counters.SummaryCorrupt == 0 {
		t.Fatal("corrupted store read no corrupt entry")
	}

	var list []string
	for k := range keys {
		list = append(list, k)
	}
	sort.Strings(list)
	got := strings.Join(list, "\n") + "\n"

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(reportGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportGolden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("report schema changed; if intentional, refresh with UPDATE_GOLDEN=1\ngot:\n%s\nwant:\n%s", got, want)
	}
}

package core

import (
	"context"
	"strings"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/testapps"
)

// brokenApp clones the leakage app and appends a class whose method uses
// a local that is never assigned — an Error-severity lint defect that
// still parses (operands auto-create locals).
func brokenApp() map[string]string {
	files := make(map[string]string, len(testapps.LeakageApp))
	for k, v := range testapps.LeakageApp {
		files[k] = v
	}
	files["classes.ir"] += "\nclass com.example.leakage.Broken {\n  method m(): void {\n    x = y\n    return\n  }\n}\n"
	return files
}

func TestLintInvalidProgramSkipsSolvers(t *testing.T) {
	opts := DefaultOptions()
	opts.Lint = true
	res, err := AnalyzeFiles(context.Background(), brokenApp(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != InvalidProgram {
		t.Fatalf("status = %v, want InvalidProgram", res.Status)
	}
	if res.Lint == nil || !res.Lint.HasErrors() {
		t.Fatal("result carries no lint errors")
	}
	if got := res.Lint.ByCode("defuse.undef"); len(got) == 0 {
		t.Errorf("expected a defuse.undef diagnostic, got %v", res.Lint.Diagnostics)
	} else if !strings.Contains(got[0].Message, `"y"`) {
		t.Errorf("diagnostic does not name the local: %v", got[0])
	}
	// No solver may have run: the verifier gates the pipeline before
	// callbacks, lifecycle, call-graph construction and the taint solve.
	for _, pass := range []string{"callbacks", "lifecycle", "callgraph", "icfg", "taint"} {
		if st := res.Passes[pass]; st.Runs != 0 || st.Hits != 0 {
			t.Errorf("pass %s ran (%d runs, %d hits) on an invalid program", pass, st.Runs, st.Hits)
		}
	}
	if res.CallGraph != nil || res.EntryPoint != nil {
		t.Error("solver artifacts populated on an invalid program")
	}
	if len(res.Taint.Leaks) != 0 {
		t.Error("taint results populated on an invalid program")
	}
}

func TestLintCleanAppStillFindsLeak(t *testing.T) {
	opts := DefaultOptions()
	opts.Lint = true
	res, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Complete {
		t.Fatalf("status = %v, want Complete", res.Status)
	}
	if res.Lint == nil {
		t.Fatal("lint result missing despite Options.Lint")
	}
	if res.Lint.HasErrors() {
		t.Errorf("leakage app should be lint-clean, got %v", res.Lint.Diagnostics)
	}
	if len(res.Leaks()) == 0 {
		t.Error("lint-gated run lost the leak")
	}
	if st := res.Passes["verify"]; st.Runs != 1 {
		t.Errorf("verify pass runs = %d, want 1", st.Runs)
	}
}

func TestLintOffByDefault(t *testing.T) {
	res, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Lint != nil {
		t.Error("lint ran without Options.Lint")
	}
	if st := res.Passes["verify"]; st.Runs != 0 {
		t.Error("verify pass ran without Options.Lint")
	}
}

func TestLintVerifyMemoized(t *testing.T) {
	app, err := apk.LoadFiles(testapps.LeakageApp)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Lint = true
	pl := newPipeline(app)
	if _, err := pl.run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	res, err := pl.run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Passes["verify"]; st.Runs != 1 || st.Hits != 1 {
		t.Errorf("verify runs/hits = %d/%d, want 1/1 (memoized second attempt)", st.Runs, st.Hits)
	}
	// Changing the analyzer selection invalidates the memo key.
	opts.LintDisable = "typecheck"
	res, err = pl.run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Passes["verify"]; st.Runs != 2 {
		t.Errorf("verify runs = %d, want 2 after key change", st.Runs)
	}
}

func TestLintUnknownAnalyzerIsError(t *testing.T) {
	opts := DefaultOptions()
	opts.Lint = true
	opts.LintEnable = "nosuchanalyzer"
	_, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, opts)
	if err == nil || !strings.Contains(err.Error(), "nosuchanalyzer") {
		t.Fatalf("expected unknown-analyzer error, got %v", err)
	}
}

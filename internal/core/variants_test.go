package core

import (
	"archive/zip"
	"context"
	"os"
	"path/filepath"
	"testing"

	"flowdroid/internal/testapps"
)

// TestAnalyzeDirAndZipAndFS exercises the three loading front doors on
// the same app and checks they agree.
func TestAnalyzeDirAndZipAndFS(t *testing.T) {
	dir := t.TempDir()
	appDir := filepath.Join(dir, "app")
	for p, content := range testapps.LeakageApp {
		full := filepath.Join(appDir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	zipPath := filepath.Join(dir, "app.zip")
	zf, err := os.Create(zipPath)
	if err != nil {
		t.Fatal(err)
	}
	zw := zip.NewWriter(zf)
	for p, content := range testapps.LeakageApp {
		w, err := zw.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := zf.Close(); err != nil {
		t.Fatal(err)
	}

	fromDir, err := AnalyzeDir(context.Background(), appDir, DefaultOptions())
	if err != nil {
		t.Fatalf("AnalyzeDir: %v", err)
	}
	fromZip, err := AnalyzeZip(context.Background(), zipPath, DefaultOptions())
	if err != nil {
		t.Fatalf("AnalyzeZip: %v", err)
	}
	fromFS, err := AnalyzeFS(context.Background(), os.DirFS(appDir), DefaultOptions())
	if err != nil {
		t.Fatalf("AnalyzeFS: %v", err)
	}
	if len(fromDir.Leaks()) != 1 || len(fromZip.Leaks()) != 1 || len(fromFS.Leaks()) != 1 {
		t.Errorf("leaks dir/zip/fs = %d/%d/%d, want 1/1/1",
			len(fromDir.Leaks()), len(fromZip.Leaks()), len(fromFS.Leaks()))
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := AnalyzeDir(context.Background(), t.TempDir(), DefaultOptions()); err == nil {
		t.Error("empty directory should fail (no manifest)")
	}
	if _, err := AnalyzeZip(context.Background(), "/nonexistent.zip", DefaultOptions()); err == nil {
		t.Error("missing zip should fail")
	}
	if _, err := AnalyzeFiles(context.Background(), map[string]string{
		"AndroidManifest.xml": "not xml",
	}, DefaultOptions()); err == nil {
		t.Error("bad manifest should fail")
	}
	// Bad source/sink rules surface as errors.
	opts := DefaultOptions()
	opts.SourceSinkRules = "source nonsense"
	if _, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, opts); err == nil {
		t.Error("bad rules should fail")
	}
	// Bad IR surfaces as errors.
	if _, err := AnalyzeFiles(context.Background(), map[string]string{
		"AndroidManifest.xml": `<manifest package="x"><application>
			<activity android:name=".A"/></application></manifest>`,
		"c.ir": "class x.A extends android.app.Activity { method m(: }",
	}, DefaultOptions()); err == nil {
		t.Error("bad IR should fail")
	}
	prog, err := ParseJava("class Main {}", "ok.ir")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeProgram(context.Background(), prog, nil, opts); err == nil {
		t.Error("bad java rules should fail")
	}
	if _, err := ParseJava("class {", "bad.ir"); err == nil {
		t.Error("bad java IR should fail")
	}
}

// TestJSONReport exercises the serialization path end to end.
func TestJSONReport(t *testing.T) {
	res, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reps := res.Taint.Report()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	r := reps[0]
	if r.SourceLabel != "password-field" || r.SinkLabel != "sms" {
		t.Errorf("labels = %s/%s", r.SourceLabel, r.SinkLabel)
	}
	if r.Source == "" || r.Sink == "" || r.SourceMethod == "" || r.SinkMethod == "" {
		t.Errorf("incomplete report: %+v", r)
	}
	if len(r.Path) < 2 {
		t.Errorf("path too short: %v", r.Path)
	}
	if r.AccessPath == "" {
		t.Error("access path missing")
	}
}

// TestPathCrossesMethods: the reconstructed path of the Listing 1 leak
// must contain statements from both the lifecycle method that read the
// password (onRestart) and the callback that sent it (sendMessage).
func TestPathCrossesMethods(t *testing.T) {
	res, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	leaks := res.Leaks()
	if len(leaks) != 1 {
		t.Fatalf("leaks = %d", len(leaks))
	}
	methods := map[string]bool{}
	for _, s := range leaks[0].Path() {
		methods[s.Method().Name] = true
	}
	if !methods["onRestart"] {
		t.Errorf("path misses the source method onRestart: %v", methods)
	}
	if !methods["sendMessage"] {
		t.Errorf("path misses the sink method sendMessage: %v", methods)
	}
}

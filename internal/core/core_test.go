package core

import (
	"context"
	"strings"
	"testing"

	"flowdroid/internal/lifecycle"
	"flowdroid/internal/taint"
	"flowdroid/internal/testapps"
)

// TestLeakageAppEndToEnd runs the whole pipeline on the paper's Listing 1
// example: the password field read in onRestart must be reported as
// flowing into sendTextMessage, which requires the lifecycle model, XML
// callback wiring, layout sources, field sensitivity and the alias
// analysis all working together.
func TestLeakageAppEndToEnd(t *testing.T) {
	res, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	leaks := res.Leaks()
	if len(leaks) != 1 {
		for _, l := range leaks {
			t.Logf("leak: %v", l)
		}
		t.Fatalf("leaks = %d, want exactly 1", len(leaks))
	}
	l := leaks[0]
	if l.Source().Source.Label != "password-field" {
		t.Errorf("source label = %q, want password-field", l.Source().Source.Label)
	}
	if l.SinkSpec.Label != "sms" {
		t.Errorf("sink label = %q, want sms", l.SinkSpec.Label)
	}
	if !strings.Contains(l.Sink.String(), "sendTextMessage") {
		t.Errorf("sink stmt = %v", l.Sink)
	}
	// The path must pass through the User object's pwd field chain.
	path := l.Path()
	if len(path) < 3 {
		t.Errorf("reconstructed path too short: %v", path)
	}
}

// TestLeakageAppUsernameNotLeaked checks field sensitivity end to end:
// only the password half of the User object is a source; the username
// flows to the same sink but must not be reported.
func TestLeakageAppUsernameNotLeaked(t *testing.T) {
	res, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Leaks() {
		if l.Source().Source.Label != "password-field" {
			t.Errorf("unexpected source: %v", l)
		}
	}
}

// TestLifecycleUnawareMisses shows why the lifecycle model matters: with
// a lifecycle-unaware dummy main (onCreate only), onRestart never runs
// and the leak disappears — the under-approximation of coarse tools.
func TestLifecycleUnawareMisses(t *testing.T) {
	opts := DefaultOptions()
	opts.Lifecycle.Mode = lifecycle.CreateOnly
	res, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaks()) != 0 {
		t.Errorf("lifecycle-unaware run should miss the onRestart leak, got %v", res.Leaks())
	}
}

// TestLocationCallback exercises imperative callback registration plus
// callback-parameter sources end to end.
func TestLocationCallback(t *testing.T) {
	res, err := AnalyzeFiles(context.Background(), testapps.LocationApp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	leaks := res.Leaks()
	found := false
	for _, l := range leaks {
		if l.Source().Source.Label == "location-callback" && l.SinkSpec.Label == "log" {
			found = true
		}
	}
	if !found {
		t.Errorf("location-callback -> log leak not found; leaks: %v", leaks)
	}
}

func TestCHAModeStillFindsLeak(t *testing.T) {
	opts := DefaultOptions()
	opts.UseCHA = true
	res, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaks()) == 0 {
		t.Error("CHA mode should still find the leak")
	}
}

func TestCustomRules(t *testing.T) {
	opts := DefaultOptions()
	// With an empty-but-valid rule set nothing is a source, so no leaks.
	opts.SourceSinkRules = "# nothing\n"
	res, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The password layout source remains (it is layout-derived, not rule
	// derived), but its sink rules are gone, so nothing can be reported.
	if len(res.Leaks()) != 0 {
		t.Errorf("no sinks configured but leaks reported: %v", res.Leaks())
	}
}

func TestResultMetadata(t *testing.T) {
	res, err := AnalyzeFiles(context.Background(), testapps.LeakageApp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.EntryPoint == nil || res.EntryPoint.Name != "dummyMain" {
		t.Error("entry point missing")
	}
	if res.CallGraph.NumEdges() == 0 {
		t.Error("empty call graph")
	}
	if res.Callbacks.Total() == 0 {
		t.Error("no callbacks discovered")
	}
	if res.PassTimes["scene"] <= 0 || res.PassTimes["taint"] <= 0 {
		t.Errorf("timings not recorded: %v", res.PassTimes)
	}
	if res.Taint.Stats.ForwardEdges == 0 {
		t.Error("no forward edges recorded")
	}
}

func TestAnalyzeJava(t *testing.T) {
	// SecuriBench-style use: plain Java program, custom rules.
	prog, err := ParseJava(`
class S {
  static method src(): java.lang.String;
  static method snk(x: java.lang.String): void;
}
class Main {
  static method main(): void {
    a = S.src()
    S.snk(a)
    return
  }
}
`, "t.ir")
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeJava(context.Background(), prog,
		"source <S: src/0> -> return\nsink <S: snk/1> -> arg0\n",
		taint.DefaultConfig(),
		prog.Class("Main").Method("main", 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DistinctSourceSinkPairs()) != 1 {
		t.Errorf("java-mode leaks = %d, want 1", len(res.DistinctSourceSinkPairs()))
	}
}

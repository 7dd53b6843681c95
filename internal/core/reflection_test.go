package core

import (
	"context"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/constprop"
	"flowdroid/internal/testapps"
)

// TestReflectiveLeakEndToEnd is the tentpole acceptance test: a leak
// routed through Class.forName("...").newInstance() plus
// getMethod("leak").invoke(obj, imei) — all names string constants — is
// found with reflection resolution on and vanishes with it off, without
// any taint-solver changes (the flow travels through synthesized bridge
// methods as ordinary call edges).
func TestReflectiveLeakEndToEnd(t *testing.T) {
	res, err := AnalyzeFiles(context.Background(), testapps.ReflectionApp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	leaks := res.Leaks()
	found := false
	for _, l := range leaks {
		if l.Source().Source.Label == "device-id" && l.SinkSpec.Label == "log" {
			found = true
		}
	}
	if !found {
		t.Errorf("device-id -> log leak through reflection not found; leaks: %v", leaks)
	}
	if res.Soundness == nil {
		t.Fatal("Soundness report missing with reflection resolution on")
	}
	// forName, newInstance, getMethod and invoke each count as a resolved
	// site; nothing is opaque in this app.
	if res.Soundness.ResolvedSites < 3 {
		t.Errorf("resolved sites = %d, want >= 3", res.Soundness.ResolvedSites)
	}
	if len(res.Soundness.Unresolved) != 0 {
		t.Errorf("unexpected unresolved sites: %v", res.Soundness.Unresolved)
	}
	if res.Counters.ReflectionResolved != res.Soundness.ResolvedSites {
		t.Errorf("counter mismatch: %d vs %d", res.Counters.ReflectionResolved, res.Soundness.ResolvedSites)
	}
	if _, ok := res.PassTimes["constprop"]; !ok {
		t.Errorf("constprop pass missing from PassTimes %v", res.PassTimes)
	}
}

// TestReflectiveLeakGatedByFlag: with ResolveReflection off the pipeline
// is the pre-reflection one — no bridges, no soundness report, no
// constprop pass entry, and the reflective leak is (unsoundly) missed.
func TestReflectiveLeakGatedByFlag(t *testing.T) {
	opts := DefaultOptions()
	opts.ResolveReflection = false
	res, err := AnalyzeFiles(context.Background(), testapps.ReflectionApp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Leaks()); n != 0 {
		t.Errorf("reflection off should miss the reflective leak, got %d", n)
	}
	if res.Soundness != nil {
		t.Errorf("Soundness should be nil with reflection off, got %+v", res.Soundness)
	}
	if _, ok := res.PassTimes["constprop"]; ok {
		t.Error("constprop pass must not appear in PassTimes with reflection off")
	}
	if res.App.Program.Class(constprop.BridgesClass) != nil {
		t.Error("bridges class materialized despite reflection off")
	}
}

// TestDynamicReflectionSoundnessReport: a class name from an intent
// extra cannot be resolved; the run completes with zero leaks but the
// soundness report names the opaque sites so the "no leaks" claim is
// explicitly qualified.
func TestDynamicReflectionSoundnessReport(t *testing.T) {
	res, err := AnalyzeFiles(context.Background(), testapps.DynamicReflectionApp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Leaks()); n != 0 {
		t.Errorf("dynamic reflection should yield no leaks, got %d", n)
	}
	if res.Soundness == nil || len(res.Soundness.Unresolved) == 0 {
		t.Fatalf("want non-empty unresolved list, got %+v", res.Soundness)
	}
	if res.Counters.ReflectionUnresolved != len(res.Soundness.Unresolved) {
		t.Errorf("counter mismatch: %d vs %d", res.Counters.ReflectionUnresolved, len(res.Soundness.Unresolved))
	}
	for _, u := range res.Soundness.Unresolved {
		if u.Reason != constprop.NonConstantString {
			t.Errorf("site %s reason = %q, want %q", u.Call, u.Reason, constprop.NonConstantString)
		}
		if u.Method == "" || u.Call == "" {
			t.Errorf("incomplete unresolved site: %+v", u)
		}
	}
}

// TestReflectionRerunSamePipeline: a second AnalyzeApp call on the same
// loaded app must reuse the already materialized bridges (the reuse
// guard re-associates them by name) and produce the same report.
func TestReflectionRerunSamePipeline(t *testing.T) {
	app, err := apk.LoadFiles(testapps.ReflectionApp)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := AnalyzeApp(context.Background(), app, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := AnalyzeApp(context.Background(), app, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Leaks()) != len(r2.Leaks()) {
		t.Errorf("leaks differ across reruns: %d vs %d", len(r1.Leaks()), len(r2.Leaks()))
	}
	if r1.Soundness.ResolvedSites != r2.Soundness.ResolvedSites {
		t.Errorf("resolved sites differ across reruns: %d vs %d",
			r1.Soundness.ResolvedSites, r2.Soundness.ResolvedSites)
	}
	cls := app.Program.Class(constprop.BridgesClass)
	if cls == nil {
		t.Fatal("bridges class missing after reruns")
	}
	if n := len(cls.Methods()); n != 2 {
		t.Errorf("bridge count = %d, want 2 (one invoke, one ctor)", n)
	}
}

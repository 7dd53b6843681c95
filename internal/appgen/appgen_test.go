package appgen

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"flowdroid/internal/core"
)

func TestDeterminism(t *testing.T) {
	a := GenerateCorpus(Malware, 5, 42)
	b := GenerateCorpus(Malware, 5, 42)
	for i := range a {
		if a[i].Files["classes.ir"] != b[i].Files["classes.ir"] {
			t.Errorf("app %d differs between runs with the same seed", i)
		}
		if a[i].InjectedLeaks != b[i].InjectedLeaks {
			t.Errorf("app %d ground truth differs", i)
		}
	}
	c := GenerateCorpus(Malware, 5, 43)
	same := true
	for i := range a {
		if a[i].Files["classes.ir"] != c[i].Files["classes.ir"] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

// TestGroundTruthRecovered checks end to end, across a sample of both
// profiles, that the analysis finds exactly the injected flows: no false
// positives, no false negatives.
func TestGroundTruthRecovered(t *testing.T) {
	for _, p := range []Profile{Play, Malware} {
		apps := GenerateCorpus(p, 15, 7)
		for _, app := range apps {
			res, err := core.AnalyzeFiles(context.Background(), app.Files, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			if got := len(res.Leaks()); got != app.InjectedLeaks {
				t.Errorf("%s (%s): found %d leaks, injected %d (%v)",
					app.Name, p.Name, got, app.InjectedLeaks, app.LeakKinds)
			}
		}
	}
}

func TestProfileShapes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var playClasses, malClasses int
	const n = 40
	for i := 0; i < n; i++ {
		playClasses += Generate(r, Play, i).Classes
	}
	r = rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		malClasses += Generate(r, Malware, i).Classes
	}
	if playClasses <= malClasses {
		t.Errorf("play apps should be larger: %d vs %d classes", playClasses, malClasses)
	}
}

// TestMalwareCorpusStats reproduces the RQ3b shape: close to the paper's
// 1.85 leaks per malware sample, dominated by SMS and network sinks, with
// malware apps analyzing faster than Play apps.
func TestMalwareCorpusStats(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run is slow")
	}
	mal, err := RunCorpus(Malware, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mal.TotalFound != mal.TotalInjected {
		t.Errorf("found %d != injected %d", mal.TotalFound, mal.TotalInjected)
	}
	if avg := mal.AvgLeaksPerApp(); avg < 1.4 || avg > 2.3 {
		t.Errorf("malware leaks/app = %.2f, want ≈1.85", avg)
	}
	if mal.BySink["sms"] == 0 {
		t.Error("malware corpus should leak via SMS")
	}
	if mal.BySink["preferences"] != 0 {
		t.Error("malware profile should not produce preference leaks")
	}

	play, err := RunCorpus(Play, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if play.BySink["sms"] != 0 {
		t.Error("play corpus must not exfiltrate via SMS")
	}
	if play.BySink["log"] == 0 {
		t.Error("play corpus should show accidental log leaks")
	}
	complete := core.Complete.String()
	if pa, ma := play.Times[complete].Avg(), mal.Times[complete].Avg(); pa <= ma {
		t.Logf("warning: play avg %v not slower than malware avg %v (small sample)", pa, ma)
	}
	t.Logf("\n%s\n%s", mal.Render(), play.Render())
}

// TestReflectionGroundTruthRecovered: with reflection resolution on (the
// default), every planted leak of the reflection profile — including the
// forName/getMethod/invoke chains and the StringBuilder-assembled
// variant — is found, genuinely dynamic chains surface as unresolved
// soundness entries instead of leaks, and no false positives appear.
func TestReflectionGroundTruthRecovered(t *testing.T) {
	apps := GenerateCorpus(Reflection, 15, 11)
	sawReflective, sawDynamic := false, false
	for _, app := range apps {
		res, err := core.AnalyzeFiles(context.Background(), app.Files, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if res.Status != core.Complete {
			t.Fatalf("%s: status %v, want complete", app.Name, res.Status)
		}
		if got := len(res.Leaks()); got != app.InjectedLeaks {
			t.Errorf("%s: found %d leaks, injected %d (%v)",
				app.Name, got, app.InjectedLeaks, app.LeakKinds)
		}
		if app.ReflectiveLeaks > 0 {
			sawReflective = true
			if res.Soundness == nil || res.Soundness.ResolvedSites == 0 {
				t.Errorf("%s: reflective leaks planted but no resolved sites reported", app.Name)
			}
		}
		if app.DynamicReflectiveChains > 0 {
			sawDynamic = true
			if res.Soundness == nil || len(res.Soundness.Unresolved) == 0 {
				t.Errorf("%s: dynamic chain planted but soundness report is empty", app.Name)
			}
		}
	}
	if !sawReflective || !sawDynamic {
		t.Fatalf("corpus sample exercised reflective=%t dynamic=%t; want both (adjust seed)",
			sawReflective, sawDynamic)
	}
}

// TestReflectionOffMissesReflectiveLeaks: the same corpus under
// -no-reflection finds exactly the non-reflective leaks — the soundness
// gap made measurable — and reports no resolution counters. On apps with
// no reflective surface the pass must be invisible: their canonical
// reports are byte-identical with reflection on and off.
func TestReflectionOffMissesReflectiveLeaks(t *testing.T) {
	apps := GenerateCorpus(Reflection, 15, 11)
	opts := core.DefaultOptions()
	opts.ResolveReflection = false
	plain := 0
	for _, app := range apps {
		res, err := core.AnalyzeFiles(context.Background(), app.Files, opts)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if res.Status != core.Complete {
			t.Fatalf("%s: status %v with reflection off, want complete", app.Name, res.Status)
		}
		want := app.InjectedLeaks - app.ReflectiveLeaks
		if got := len(res.Leaks()); got != want {
			t.Errorf("%s: reflection off found %d leaks, want %d of %d (%v)",
				app.Name, got, want, app.InjectedLeaks, app.LeakKinds)
		}
		if res.Soundness != nil {
			t.Errorf("%s: soundness report present with reflection off", app.Name)
		}
		if c := res.Counters; c.ReflectionResolved != 0 || c.ReflectionUnresolved != 0 {
			t.Errorf("%s: reflection off reports %d resolved and %d unresolved sites, want 0",
				app.Name, c.ReflectionResolved, c.ReflectionUnresolved)
		}
		if app.ReflectiveLeaks != 0 || app.DynamicReflectiveChains != 0 {
			continue
		}
		plain++
		on, err := core.AnalyzeFiles(context.Background(), app.Files, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if a, b := canonicalJSON(t, on), canonicalJSON(t, res); !bytes.Equal(a, b) {
			t.Errorf("%s has no reflective surface but its report differs with reflection on:\n%s\nvs off:\n%s", app.Name, a, b)
		}
	}
	if plain == 0 {
		t.Fatal("corpus has no reflection-free app; the on/off identity check would be vacuous")
	}
}

func canonicalJSON(t *testing.T, res *core.Result) []byte {
	t.Helper()
	js, err := res.Taint.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

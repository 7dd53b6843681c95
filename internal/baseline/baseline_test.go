package baseline

import (
	"strings"
	"testing"

	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
)

// TestAppScanLikeShape checks that the AppScan stand-in lands on the
// paper's Table 1 shape: about half the leaks found (recall ≈50%),
// precision in the mid-70s, strictly worse than FlowDroid on both counts
// of the F-measure.
func TestAppScanLikeShape(t *testing.T) {
	s := droidbench.Score(droidbench.RunSuite(AppScanLike()))
	t.Logf("AppScan-like: TP=%d FP=%d missed=%d p=%.2f r=%.2f f=%.2f",
		s.TP, s.FP, s.Missed, s.Precision, s.Recall, s.F)
	if s.Recall < 0.40 || s.Recall > 0.60 {
		t.Errorf("recall = %.2f, want ≈0.50 (paper)", s.Recall)
	}
	if s.Precision < 0.65 || s.Precision > 0.85 {
		t.Errorf("precision = %.2f, want ≈0.74 (paper)", s.Precision)
	}
}

// TestFortifyLikeShape: recall ≈61%, precision ≈81%, between AppScan and
// FlowDroid.
func TestFortifyLikeShape(t *testing.T) {
	s := droidbench.Score(droidbench.RunSuite(FortifyLike()))
	t.Logf("Fortify-like: TP=%d FP=%d missed=%d p=%.2f r=%.2f f=%.2f",
		s.TP, s.FP, s.Missed, s.Precision, s.Recall, s.F)
	if s.Recall < 0.50 || s.Recall > 0.70 {
		t.Errorf("recall = %.2f, want ≈0.61 (paper)", s.Recall)
	}
	if s.Precision < 0.70 || s.Precision > 0.90 {
		t.Errorf("precision = %.2f, want ≈0.81 (paper)", s.Precision)
	}
}

// TestOrdering reproduces the headline comparison: FlowDroid beats both
// commercial stand-ins on recall and F-measure, and Fortify beats AppScan.
func TestOrdering(t *testing.T) {
	app := droidbench.Score(droidbench.RunSuite(AppScanLike()))
	fort := droidbench.Score(droidbench.RunSuite(FortifyLike()))
	fd := droidbench.Score(droidbench.RunSuite(droidbench.FlowDroid()))
	if !(fd.Recall > fort.Recall && fort.Recall > app.Recall) {
		t.Errorf("recall ordering broken: fd=%.2f fortify=%.2f appscan=%.2f",
			fd.Recall, fort.Recall, app.Recall)
	}
	if !(fd.F > fort.F && fort.F > app.F) {
		t.Errorf("F-measure ordering broken: fd=%.2f fortify=%.2f appscan=%.2f",
			fd.F, fort.F, app.F)
	}
	if fd.Precision < fort.Precision {
		t.Errorf("FlowDroid precision %.2f should be at least Fortify's %.2f",
			fd.Precision, fort.Precision)
	}
}

// TestFortifyLifecycleByChance reproduces the paper's observation that the
// flat-lifecycle tool finds 4 of the 6 lifecycle leaks: those whose store
// precedes the read in canonical order.
func TestFortifyLifecycleByChance(t *testing.T) {
	results := droidbench.RunSuite(FortifyLike())
	found := map[string]int{}
	for _, r := range results {
		if r.Case.Category == "Lifecycle" {
			found[r.Case.Name] = r.TP
		}
	}
	wantFound := map[string]int{
		"BroadcastReceiverLifecycle1": 1,
		"ActivityLifecycle1":          1, // onCreate -> onDestroy: in order
		"ActivityLifecycle2":          0, // restore before save: missed
		"ActivityLifecycle3":          1, // onStop -> onRestart: in order
		"ActivityLifecycle4":          0, // resume before pause: missed
		"ServiceLifecycle1":           1,
	}
	for name, want := range wantFound {
		if found[name] != want {
			t.Errorf("Fortify-like on %s: TP=%d, want %d", name, found[name], want)
		}
	}
}

func TestInactiveActivityFalsePositive(t *testing.T) {
	c, ok := droidbench.CaseByName("InactiveActivity")
	if !ok {
		t.Fatal("case missing")
	}
	for _, a := range []droidbench.Analyzer{AppScanLike(), FortifyLike()} {
		found, err := a.Run(c.Files)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if found != 1 {
			t.Errorf("%s should report the disabled activity's leak (manifest ignored), got %d", a.Name, found)
		}
	}
}

func TestArrayIndexPatternMatching(t *testing.T) {
	// The baselines distinguish constant indices (no FP on ArrayAccess1)
	// but not computed ones (FP on ArrayAccess2 remains).
	c1, _ := droidbench.CaseByName("ArrayAccess1")
	c2, _ := droidbench.CaseByName("ArrayAccess2")
	for _, a := range []droidbench.Analyzer{AppScanLike(), FortifyLike()} {
		n1, err := a.Run(c1.Files)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != 0 {
			t.Errorf("%s: ArrayAccess1 should be clean with index matching, got %d", a.Name, n1)
		}
		n2, err := a.Run(c2.Files)
		if err != nil {
			t.Fatal(err)
		}
		if n2 != 1 {
			t.Errorf("%s: ArrayAccess2 should still be a false positive, got %d", a.Name, n2)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow")
	}
	direct, _ := droidbench.CaseByName("DirectLeak1")
	for _, ab := range Ablations() {
		a := AblationAnalyzer(ab)
		n, err := a.Run(direct.Files)
		if err != nil {
			t.Errorf("%s: %v", ab.Name, err)
			continue
		}
		if n != 1 {
			t.Errorf("%s: DirectLeak1 found %d leaks, want 1 (every ablation keeps trivial flows)", ab.Name, n)
		}
	}
}

// TestCutShortRunIsAnError: a run a propagation budget cuts short is the
// case's error, named by its status, never a clean count of the leaks it
// reached.
func TestCutShortRunIsAnError(t *testing.T) {
	direct, _ := droidbench.CaseByName("DirectLeak1")
	a := AblationAnalyzer(Ablation{"budget-1", func(o *core.Options) { o.MaxPropagations = 1 }})
	n, err := a.Run(direct.Files)
	if err == nil || !strings.Contains(err.Error(), core.BudgetExhausted.String()) {
		t.Errorf("DirectLeak1 under a budget of 1: found %d, error %v; want a BudgetExhausted error", n, err)
	}
}

func TestTable1Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("full three-tool table is slow")
	}
	out := Table1()
	for _, want := range []string{"AppScan", "Fortify", "FlowDroid", "Precision", "F-measure"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

package appgen

import (
	"context"
	"strings"
	"testing"
	"time"

	"flowdroid/internal/core"
)

// TestCorpusFaultIsolation: one app forced to panic mid-batch is reported
// as recovered while every other app is analyzed normally.
func TestCorpusFaultIsolation(t *testing.T) {
	const n, seed = 6, 7
	apps := GenerateCorpus(Play, n, seed)
	victim := apps[2].Name

	stats, err := RunCorpusWith(context.Background(), Play, n, seed, core.DefaultOptions(), RunOptions{FaultInject: victim})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Apps != n {
		t.Errorf("analyzed %d apps, want %d (the panic must not abort the batch)", stats.Apps, n)
	}
	if got := stats.Times[core.Recovered.String()].Apps; got != 1 {
		t.Errorf("recovered = %d, want 1", got)
	}
	found := false
	for _, f := range stats.Failures {
		if strings.Contains(f, victim) {
			found = true
		}
	}
	if !found {
		t.Errorf("failures %v do not name the injected victim %s", stats.Failures, victim)
	}

	// The other apps must have produced their normal results: same leaks
	// as a clean run minus the victim's contribution.
	clean, err := RunCorpusWith(context.Background(), Play, n, seed, core.DefaultOptions(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Times[core.Recovered.String()].Apps != 0 || clean.Times["Error"].Apps != 0 {
		t.Fatalf("clean run had abnormal outcomes: %+v", clean)
	}
	if want := clean.TotalFound - apps[2].InjectedLeaks; stats.TotalFound != want {
		t.Errorf("faulted batch found %d leaks, want %d (clean %d minus victim's %d)",
			stats.TotalFound, want, clean.TotalFound, apps[2].InjectedLeaks)
	}
	if summary := stats.Render(); !strings.Contains(summary, "abnormal outcomes") {
		t.Errorf("summary does not report abnormal outcomes:\n%s", summary)
	}
}

// TestCorpusPerAppTimeout: an absurdly small per-app deadline marks every
// app timed out; none crashes the batch.
func TestCorpusPerAppTimeout(t *testing.T) {
	const n = 3
	stats, err := RunCorpusWith(context.Background(), Play, n, 7, core.DefaultOptions(), RunOptions{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Apps != n {
		t.Errorf("analyzed %d apps, want %d", stats.Apps, n)
	}
	if got := stats.Times[core.DeadlineExceeded.String()].Apps; got != n {
		t.Errorf("timed out = %d, want %d", got, n)
	}
}

// TestCorpusBatchCancellation: a dead batch context stops before the first
// app and accounts for the apps never attempted.
func TestCorpusBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := RunCorpusWith(ctx, Play, 4, 7, core.DefaultOptions(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Apps != 0 || stats.Incomplete != 4 {
		t.Errorf("apps = %d, incomplete = %d; want 0 and 4", stats.Apps, stats.Incomplete)
	}
}

// TestCorpusBudgetAndDegrade: a tiny per-app budget triggers exhaustion
// accounting, and enabling degradation records downgraded apps.
func TestCorpusBudgetAndDegrade(t *testing.T) {
	const n = 3
	opts := core.DefaultOptions()
	opts.MaxPropagations = 10
	stats, err := RunCorpusWith(context.Background(), Play, n, 7, opts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Times[core.BudgetExhausted.String()].Apps == 0 {
		t.Error("no app exhausted a 10-propagation budget")
	}
	opts.Degrade = true
	degraded, err := RunCorpusWith(context.Background(), Play, n, 7, opts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Degraded == 0 {
		t.Error("no app recorded a degraded configuration")
	}
}

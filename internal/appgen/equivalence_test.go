package appgen

import (
	"context"
	"fmt"
	"testing"

	"flowdroid/internal/core"
)

// TestCorpusWorkerCountEquivalence pins the one-schedule relation that
// replaced equivalence across solver worker counts at corpus level: a
// repeated batch must aggregate to the same leak statistics — same
// total, same apps-with-leaks count, same per-sink distribution — and
// the same summed counters.
func TestCorpusWorkerCountEquivalence(t *testing.T) {
	const n, seed = 6, 42
	run := func() CorpusStats {
		t.Helper()
		stats, err := RunCorpusWith(context.Background(), Stress, n, seed, core.DefaultOptions(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	base := run()
	if base.TotalFound == 0 {
		t.Fatal("stress corpus found no leaks; the equivalence check would be vacuous")
	}
	if base.Times["Error"].Apps+base.Times[core.Recovered.String()].Apps+base.Incomplete > 0 {
		t.Fatalf("baseline had abnormal outcomes: %+v", base.Failures)
	}
	stats := run()
	if stats.TotalFound != base.TotalFound || stats.AppsWithLeaks != base.AppsWithLeaks {
		t.Errorf("found %d leaks in %d apps, want %d in %d",
			stats.TotalFound, stats.AppsWithLeaks, base.TotalFound, base.AppsWithLeaks)
	}
	if got, want := fmt.Sprint(stats.BySink), fmt.Sprint(base.BySink); got != want {
		t.Errorf("sink distribution %s, want %s", got, want)
	}
	if stats.Counters != base.Counters {
		t.Errorf("summed counters %+v, want %+v", stats.Counters, base.Counters)
	}
}

package appgen

import (
	"context"
	"fmt"
	"testing"

	"flowdroid/internal/core"
)

// TestCorpusWorkerCountEquivalence: a corpus batch must aggregate to the
// same leak statistics at any taint worker count — same total, same
// apps-with-leaks count, same per-sink distribution.
func TestCorpusWorkerCountEquivalence(t *testing.T) {
	const n, seed = 6, 42
	opts := core.DefaultOptions()
	opts.Taint.Workers = 1
	base, err := RunCorpusWith(context.Background(), Stress, n, seed, opts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalFound == 0 {
		t.Fatal("stress corpus found no leaks; the equivalence check would be vacuous")
	}
	if base.Times["Error"].Apps+base.Times[core.Recovered.String()].Apps+base.Incomplete > 0 {
		t.Fatalf("sequential baseline had abnormal outcomes: %+v", base.Failures)
	}
	for _, w := range []int{2, 8} {
		opts.Taint.Workers = w
		stats, err := RunCorpusWith(context.Background(), Stress, n, seed, opts, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.TotalFound != base.TotalFound || stats.AppsWithLeaks != base.AppsWithLeaks {
			t.Errorf("workers=%d: found %d leaks in %d apps, want %d in %d",
				w, stats.TotalFound, stats.AppsWithLeaks, base.TotalFound, base.AppsWithLeaks)
		}
		if got, want := fmt.Sprint(stats.BySink), fmt.Sprint(base.BySink); got != want {
			t.Errorf("workers=%d: sink distribution %s, want %s", w, got, want)
		}
	}
}

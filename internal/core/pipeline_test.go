package core_test

import (
	"context"
	"testing"

	"flowdroid/internal/core"
	"flowdroid/internal/insecurebank"
)

// TestPassesOnCompleteRun: a single clean run executes every pass exactly
// once.
func TestPassesOnCompleteRun(t *testing.T) {
	res, err := core.AnalyzeFiles(context.Background(), insecurebank.Files, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Complete {
		t.Fatalf("status = %v, want Complete", res.Status)
	}
	for _, pass := range []string{"scene", "callbacks", "lifecycle", "callgraph", "icfg", "sourcesink", "taint"} {
		st, ok := res.Passes[pass]
		if !ok {
			t.Errorf("pass %q missing from Result.Passes", pass)
			continue
		}
		if st.Runs != 1 {
			t.Errorf("pass %q: runs %d, want 1 on a single attempt", pass, st.Runs)
		}
	}
}

// TestDegradeLadderReusesUpstreamArtifacts: the ladder consists only of
// access-path-length rungs, which must re-run the taint pass alone —
// every upstream pass (callbacks, dummy main, call graph, ICFG,
// source/sink manager) runs once across all attempts, under the
// points-to and the CHA call graph alike.
func TestDegradeLadderReusesUpstreamArtifacts(t *testing.T) {
	app := stressApp(t)
	for _, cha := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.UseCHA = cha
		opts.MaxPropagations = 500
		opts.Degrade = true
		res, err := core.AnalyzeFiles(context.Background(), app.Files, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Degraded) == 0 {
			t.Fatalf("cha=%t: budget-exhausted run recorded no downgrade rungs", cha)
		}
		if res.Degraded[0] != "ap-length=3" {
			t.Errorf("cha=%t: first rung = %q, want ap-length=3", cha, res.Degraded[0])
		}
		attempts := 1 + len(res.Degraded)
		if got := res.Passes["taint"]; got.Runs != attempts {
			t.Errorf("cha=%t: taint runs %d, want %d (taint is the retried pass)", cha, got.Runs, attempts)
		}
		for _, pass := range []string{"scene", "callbacks", "lifecycle", "callgraph", "icfg", "sourcesink"} {
			if st := res.Passes[pass]; st.Runs != 1 {
				t.Errorf("cha=%t: pass %q ran %d times across %d attempts, want 1 (ap-length rungs must not rebuild it)",
					cha, pass, st.Runs, attempts)
			}
		}
	}
}

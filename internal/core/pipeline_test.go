package core_test

import (
	"context"
	"testing"

	"flowdroid/internal/core"
	"flowdroid/internal/insecurebank"
)

// TestPassesOnCompleteRun: a clean whole-program run reaches every
// unconditional pass, so each has a PassTimes entry, and none of the
// passes its options leave off (verify, cone, summaries).
func TestPassesOnCompleteRun(t *testing.T) {
	res, err := core.AnalyzeFiles(context.Background(), insecurebank.Files, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Complete {
		t.Fatalf("status = %v, want Complete", res.Status)
	}
	for _, pass := range []string{"scene", "sourcesink", "constprop", "callbacks", "lifecycle", "callgraph", "icfg", "taint"} {
		if _, ok := res.PassTimes[pass]; !ok {
			t.Errorf("pass %q missing from Result.PassTimes %v", pass, res.PassTimes)
		}
	}
	for _, pass := range []string{"verify", "cone", "summaries"} {
		if _, ok := res.PassTimes[pass]; ok {
			t.Errorf("pass %q ran although its option is off", pass)
		}
	}
}

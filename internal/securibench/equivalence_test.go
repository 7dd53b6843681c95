package securibench

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"flowdroid/internal/core"
	"flowdroid/internal/ir"
	"flowdroid/internal/taint"
)

// analyzeCase parses a case afresh and runs its doGet entry points.
func analyzeCase(t *testing.T, c Case) *taint.Results {
	t.Helper()
	prog, err := Program(c)
	if err != nil {
		t.Fatal(err)
	}
	var entries []*ir.Method
	for _, cls := range prog.Classes() {
		if m := cls.Method("doGet", 2); m != nil && !m.Abstract() {
			entries = append(entries, m)
		}
	}
	res, err := core.AnalyzeJava(context.Background(), prog, rules, Config(), entries...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// reportJSON renders the report with its path witnesses.
func reportJSON(t *testing.T, r *taint.Results) []byte {
	t.Helper()
	js, err := json.Marshal(r.Report())
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestWorkerCountEquivalence pins the one-schedule relation that
// replaced equivalence across solver worker counts: an analysis runs on
// one goroutine in a fixed exploration order, so every SecuriBench case
// must produce a byte-identical report, path witnesses included, on
// repeated runs.
func TestWorkerCountEquivalence(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			base := reportJSON(t, analyzeCase(t, c))
			if again := reportJSON(t, analyzeCase(t, c)); !bytes.Equal(base, again) {
				t.Errorf("report differs between runs:\n%s\nvs\n%s", base, again)
			}
		})
	}
}

package droidbench

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"flowdroid/internal/core"
)

// TestWorkerCountEquivalence pins the one-schedule relation that
// replaced equivalence across solver worker counts: an analysis runs on
// one goroutine in a fixed exploration order, so every DroidBench case
// must produce a byte-identical report, path witnesses included, and the
// same fact-domain size on repeated runs.
func TestWorkerCountEquivalence(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var base []byte
			var basePeak int
			for run := 0; run < 2; run++ {
				res, err := core.AnalyzeFiles(context.Background(), c.Files, core.DefaultOptions())
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				js, err := json.Marshal(res.Taint.Report())
				if err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					base, basePeak = js, res.Taint.Stats.PeakAbstractions
					continue
				}
				if !bytes.Equal(base, js) {
					t.Errorf("report differs between runs:\n%s\nvs\n%s", base, js)
				}
				if res.Taint.Stats.PeakAbstractions != basePeak {
					t.Errorf("PeakAbstractions = %d, first run %d", res.Taint.Stats.PeakAbstractions, basePeak)
				}
			}
		})
	}
}

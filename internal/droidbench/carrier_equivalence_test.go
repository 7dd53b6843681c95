package droidbench

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"flowdroid/internal/core"
)

// TestStringCarrierEquivalence: every DroidBench case must produce a
// byte-identical report, path witnesses included, and the same alias
// search count on repeated runs.
func TestStringCarrierEquivalence(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var base []byte
			var baseAlias int
			for run := 0; run < 2; run++ {
				res, err := core.AnalyzeFiles(context.Background(), c.Files, core.DefaultOptions())
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				js, err := json.Marshal(res.Taint.Report())
				if err != nil {
					t.Fatal(err)
				}
				alias := res.Taint.Stats.AliasQueries
				if run == 0 {
					base, baseAlias = js, alias
					continue
				}
				if !bytes.Equal(base, js) {
					t.Errorf("report differs between runs:\n%s\nvs\n%s", base, js)
				}
				if alias != baseAlias {
					t.Errorf("%d alias searches; first run: %d", alias, baseAlias)
				}
			}
		})
	}
}

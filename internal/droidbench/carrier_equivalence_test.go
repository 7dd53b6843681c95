package droidbench

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"flowdroid/internal/core"
)

// TestStringCarrierEquivalence: the string-carrier alias gate decides
// once per call site, so every DroidBench case must produce a
// byte-identical report, path witnesses included, and the same performed
// and gated alias-search counts on repeated runs. The gate-on versus
// un-gated comparison lives in the taint package's TestGateEquivalence,
// the only place the reference mode is reachable.
func TestStringCarrierEquivalence(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var base []byte
			var baseAlias, baseGated int
			for run := 0; run < 2; run++ {
				res, err := core.AnalyzeFiles(context.Background(), c.Files, core.DefaultOptions())
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				js, err := json.Marshal(res.Taint.Report())
				if err != nil {
					t.Fatal(err)
				}
				st := res.Taint.Stats
				if run == 0 {
					base, baseAlias, baseGated = js, st.AliasQueries, st.GatedAliasQueries
					continue
				}
				if !bytes.Equal(base, js) {
					t.Errorf("report differs between runs:\n%s\nvs\n%s", base, js)
				}
				if st.AliasQueries != baseAlias || st.GatedAliasQueries != baseGated {
					t.Errorf("%d alias searches, %d gated; first run: %d, %d",
						st.AliasQueries, st.GatedAliasQueries, baseAlias, baseGated)
				}
			}
		})
	}
}

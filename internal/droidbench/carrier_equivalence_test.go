package droidbench

import (
	"bytes"
	"context"
	"testing"

	"flowdroid/internal/core"
)

// TestStringCarrierEquivalence: the string-carrier alias gate decides
// once per call site and shares that decision across workers, so every
// DroidBench case must produce a byte-identical canonical leak report and
// the same performed and gated alias-search counts at worker counts 1, 2
// and 8. The gate-on versus un-gated comparison lives in the taint
// package's TestGateEquivalence, the only place the reference mode is
// reachable.
func TestStringCarrierEquivalence(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var base []byte
			var baseAlias, baseGated int
			for _, w := range []int{1, 2, 8} {
				opts := core.DefaultOptions()
				opts.Taint.Workers = w
				res, err := core.AnalyzeFiles(context.Background(), c.Files, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				js, err := res.Taint.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				st := res.Taint.Stats
				if w == 1 {
					base, baseAlias, baseGated = js, st.AliasQueries, st.GatedAliasQueries
					continue
				}
				if !bytes.Equal(base, js) {
					t.Errorf("workers=%d report differs from workers=1:\n%s\nvs\n%s", w, base, js)
				}
				if st.AliasQueries != baseAlias || st.GatedAliasQueries != baseGated {
					t.Errorf("workers=%d: %d alias searches, %d gated; workers=1: %d, %d",
						w, st.AliasQueries, st.GatedAliasQueries, baseAlias, baseGated)
				}
			}
		})
	}
}

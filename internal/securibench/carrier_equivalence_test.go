package securibench

import (
	"bytes"
	"context"
	"testing"

	"flowdroid/internal/core"
	"flowdroid/internal/ir"
)

// TestStringCarrierEquivalence: the string-carrier alias gate decides
// once per call site and shares that decision across workers, so every
// SecuriBench case must produce a byte-identical canonical leak report and
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
				conf := Config()
				conf.Workers = w
				res, err := core.AnalyzeJava(context.Background(), prog, rules, conf, entries...)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				js, err := res.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if w == 1 {
					base, baseAlias, baseGated = js, res.Stats.AliasQueries, res.Stats.GatedAliasQueries
					continue
				}
				if !bytes.Equal(base, js) {
					t.Errorf("workers=%d report differs from workers=1:\n%s\nvs\n%s", w, base, js)
				}
				if res.Stats.AliasQueries != baseAlias || res.Stats.GatedAliasQueries != baseGated {
					t.Errorf("workers=%d: %d alias searches, %d gated; workers=1: %d, %d",
						w, res.Stats.AliasQueries, res.Stats.GatedAliasQueries, baseAlias, baseGated)
				}
			}
		})
	}
}

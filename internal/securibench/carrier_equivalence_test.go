package securibench

import (
	"bytes"
	"testing"
)

// TestStringCarrierEquivalence: the string-carrier alias gate decides
// once per call site, so every SecuriBench case must produce a
// byte-identical report and the same performed and gated alias-search
// counts on repeated runs. The gate-on versus un-gated comparison lives
// in the taint package's TestGateEquivalence, the only place the
// reference mode is reachable.
func TestStringCarrierEquivalence(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			first, again := analyzeCase(t, c), analyzeCase(t, c)
			if a, b := reportJSON(t, first), reportJSON(t, again); !bytes.Equal(a, b) {
				t.Errorf("report differs between runs:\n%s\nvs\n%s", a, b)
			}
			if a, b := first.Stats, again.Stats; a.AliasQueries != b.AliasQueries || a.GatedAliasQueries != b.GatedAliasQueries {
				t.Errorf("%d alias searches, %d gated; first run: %d, %d",
					b.AliasQueries, b.GatedAliasQueries, a.AliasQueries, a.GatedAliasQueries)
			}
		})
	}
}

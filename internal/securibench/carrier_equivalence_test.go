package securibench

import (
	"bytes"
	"testing"
)

// TestStringCarrierEquivalence: every SecuriBench case must produce a
// byte-identical report and the same alias search count on repeated
// runs.
func TestStringCarrierEquivalence(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			first, again := analyzeCase(t, c), analyzeCase(t, c)
			if a, b := reportJSON(t, first), reportJSON(t, again); !bytes.Equal(a, b) {
				t.Errorf("report differs between runs:\n%s\nvs\n%s", a, b)
			}
			if a, b := first.Stats.AliasQueries, again.Stats.AliasQueries; a != b {
				t.Errorf("%d alias searches; first run: %d", b, a)
			}
		})
	}
}

package constprop_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flowdroid/internal/constprop"
	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
)

// TestNonConvergenceIsRecovered: when the fixpoint's step bound runs out
// mid-pipeline, the run ends with the typed Recovered status at stage
// constprop, naming the method, instead of reporting on unconverged
// facts.
func TestNonConvergenceIsRecovered(t *testing.T) {
	var files map[string]string
	for _, c := range droidbench.ReflectionCases() {
		if c.Name == "Reflection4" { // the chain spans two methods
			files = c.Files
		}
	}
	ctx := constprop.WithStepBound(context.Background(), 1)
	res, err := core.AnalyzeFiles(ctx, files, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Recovered {
		t.Fatalf("status = %v, want %v", res.Status, core.Recovered)
	}
	if res.Failure == nil || res.Failure.Stage != "constprop" {
		t.Fatalf("failure = %+v, want stage constprop", res.Failure)
	}
	if msg := fmt.Sprint(res.Failure.Value); !strings.Contains(msg, "did not converge") || !strings.Contains(msg, "de.ecspride.") {
		t.Fatalf("failure value %q does not name the non-converged method", msg)
	}
}

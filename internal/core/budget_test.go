package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/insecurebank"
)

// TestBudgetCutReportIsSubset: a propagation budget only cuts the solve
// short. A budget-exhausted run's (source, sink) pairs are a subset of
// the unbudgeted run's, and a budgeted run that ends Complete returns the
// unbudgeted report, path witnesses included. Budgets range from one
// propagation to more than each input needs, under the points-to and the
// CHA call graph.
func TestBudgetCutReportIsSubset(t *testing.T) {
	droid := map[string]map[string]string{}
	for _, c := range droidbench.Cases() {
		droid[c.Name] = c.Files
	}
	inputs := []struct {
		name    string
		files   map[string]string
		budgets []int
	}{
		{"stress", stressApp(t).Files, []int{1, 50, 200, 500, 1000, 3000, 10000, 1 << 20}},
		{"insecurebank", insecurebank.Files, []int{1, 20, 50, 100, 150, 200, 203, 1000}},
		// The shortest budgets at which these two complete lie close to
		// their full propagation counts.
		{"FieldSensitivity4", droid["FieldSensitivity4"], []int{170, 185, 1000}},
		{"PrivateDataLeak1", droid["PrivateDataLeak1"], []int{480, 500, 2000}},
		// CHA resolves more callees here than points-to does.
		{"InheritedObjects1", droid["InheritedObjects1"], []int{10, 30, 45, 49, 1000}},
	}
	exhausted, fewer, completed := 0, 0, 0
	for _, in := range inputs {
		for _, cha := range []bool{false, true} {
			opts := core.DefaultOptions()
			opts.UseCHA = cha
			full := analyzeForReport(t, in.files, opts)
			if full.res.Status != core.Complete {
				t.Fatalf("%s cha=%t: unbudgeted run ended %v", in.name, cha, full.res.Status)
			}
			all := pairsOf(full.res)
			for _, budget := range in.budgets {
				opts.MaxPropagations = budget
				got := analyzeForReport(t, in.files, opts)
				where := fmt.Sprintf("%s cha=%t budget %d", in.name, cha, budget)
				switch got.res.Status {
				case core.Complete:
					completed++
					if !bytes.Equal(got.report, full.report) {
						t.Errorf("%s: completed with report\n%s\nbut the unbudgeted run reports\n%s", where, got.report, full.report)
					}
				case core.BudgetExhausted:
					exhausted++
					pairs := pairsOf(got.res)
					for p := range pairs {
						if !all[p] {
							t.Errorf("%s: budget-cut run reports %s, which the unbudgeted run does not", where, p)
						}
					}
					if len(pairs) < len(all) {
						fewer++
					}
				default:
					t.Errorf("%s: status %v, want Complete or BudgetExhausted", where, got.res.Status)
				}
			}
		}
	}
	t.Logf("%d budget-exhausted runs (%d with fewer leaks), %d completed", exhausted, fewer, completed)
	if fewer == 0 || completed == 0 {
		t.Errorf("%d runs cut leaks, %d completed under a budget: want some of each", fewer, completed)
	}
}

// pairsOf keys a result's distinct (source, sink) leaks by their
// statements and methods: the access path at the sink and the witness
// path are left out, since a cut-short run may reach a pair by another
// derivation first.
func pairsOf(res *core.Result) map[string]bool {
	out := make(map[string]bool)
	for _, l := range res.Taint.Report() {
		out[fmt.Sprintf("%s: %s --> %s: %s", l.SourceMethod, l.Source, l.SinkMethod, l.Sink)] = true
	}
	return out
}

type reportedRun struct {
	res    *core.Result
	report []byte
}

func analyzeForReport(t *testing.T, files map[string]string, opts core.Options) reportedRun {
	t.Helper()
	res, err := core.AnalyzeFiles(context.Background(), files, opts)
	if err != nil {
		t.Fatal(err)
	}
	report, err := json.Marshal(res.Taint.Report())
	if err != nil {
		t.Fatal(err)
	}
	return reportedRun{res, report}
}

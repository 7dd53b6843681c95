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

// TestDegradedRunEqualsFreshRun: a run that went down the degrade ladder
// returns what a fresh run under its last rung's options returns — the
// same report with path witnesses, the same status and the same counters
// apart from BodiesParsed (earlier attempts parse bodies too). The
// passes upstream of the taint solve run once per AnalyzeApp, so this
// pins that no attempt leaves state behind that changes a later one.
func TestDegradedRunEqualsFreshRun(t *testing.T) {
	droid := map[string]map[string]string{}
	for _, c := range droidbench.Cases() {
		droid[c.Name] = c.Files
	}
	inputs := []struct {
		name    string
		files   map[string]string
		budgets []int
	}{
		{"stress", stressApp(t).Files, []int{1, 50, 200, 500, 1000, 3000, 10000}},
		{"insecurebank", insecurebank.Files, []int{1, 20, 50, 100, 150, 200, 203}},
		// The ap-length=1 rung needs fewer propagations than the full
		// configuration on these two, so within these budgets the
		// ladder completes on its last rung.
		{"FieldSensitivity4", droid["FieldSensitivity4"], []int{170, 185}},
		{"PrivateDataLeak1", droid["PrivateDataLeak1"], []int{480, 500}},
		// CHA, as the starting option, resolves more callees here than
		// points-to does.
		{"InheritedObjects1", droid["InheritedObjects1"], []int{10, 30, 45, 49}},
	}
	degradedRuns, completed := 0, 0
	for _, in := range inputs {
		for _, cha := range []bool{false, true} {
			for _, budget := range in.budgets {
				opts := core.DefaultOptions()
				opts.UseCHA = cha
				opts.MaxPropagations = budget
				opts.Degrade = true
				got := analyzeForReport(t, in.files, opts)
				if len(got.res.Degraded) == 0 {
					continue
				}
				degradedRuns++
				if got.res.Status == core.Complete {
					completed++
				}
				fresh := opts
				fresh.Degrade = false
				for _, rung := range got.res.Degraded {
					switch rung {
					case "ap-length=3":
						fresh.Taint.APLength = 3
					case "ap-length=1":
						fresh.Taint.APLength = 1
					default:
						t.Fatalf("unknown rung %q", rung)
					}
				}
				want := analyzeForReport(t, in.files, fresh)
				where := fmt.Sprintf("%s cha=%t budget %d rungs %v", in.name, cha, budget, got.res.Degraded)
				if got.res.Status != want.res.Status {
					t.Errorf("%s: status %v, fresh run %v", where, got.res.Status, want.res.Status)
				}
				if !bytes.Equal(got.report, want.report) {
					t.Errorf("%s: report\n%s\ndiffers from the fresh run's\n%s", where, got.report, want.report)
				}
				gc, wc := got.res.Counters, want.res.Counters
				gc.BodiesParsed, wc.BodiesParsed = 0, 0
				if gc != wc {
					t.Errorf("%s: counters %+v, fresh run %+v", where, gc, wc)
				}
			}
		}
	}
	t.Logf("%d degraded runs, %d completed on a later rung", degradedRuns, completed)
	if degradedRuns == 0 || completed == 0 {
		t.Errorf("%d degraded runs, %d completed on a later rung: want some of each", degradedRuns, completed)
	}
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

package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/metrics"
	"flowdroid/internal/securibench"
	"flowdroid/internal/taint"
)

// TestOneScheduleIsReproducible: an analysis explores in one fixed order,
// so repeated runs of one configuration over one app agree byte for byte
// — the report with its path witnesses, every counter and the
// deterministic metrics section — on completed runs and on runs a
// propagation budget cuts short at the same frontier.
func TestOneScheduleIsReproducible(t *testing.T) {
	type input struct {
		name  string
		files map[string]string
	}
	var inputs []input
	for _, c := range droidbench.Cases() {
		inputs = append(inputs, input{"droidbench/" + c.Name, c.Files})
	}
	for _, app := range appgen.GenerateCorpus(appgen.Stress, 3, 1) {
		inputs = append(inputs, input{app.Name, app.Files})
	}
	for _, app := range appgen.GenerateCorpus(appgen.Malware, 6, 1) {
		inputs = append(inputs, input{app.Name, app.Files})
	}
	const runs = 10
	cut := map[int]int{} // budget -> inputs it cut short
	for _, in := range inputs {
		for _, budget := range []int{0, 200, 3000} {
			opts := core.DefaultOptions()
			opts.MaxPropagations = budget
			var want, wantDet []byte
			var wantCounters core.Counters
			for run := 0; run < runs; run++ {
				rec := metrics.New()
				res, err := core.AnalyzeFiles(metrics.Into(context.Background(), rec), in.files, opts)
				if err != nil {
					t.Fatalf("%s budget %d: %v", in.name, budget, err)
				}
				got, err := json.Marshal(res.Taint.Report())
				if err != nil {
					t.Fatal(err)
				}
				det, err := json.Marshal(rec.Snapshot().Deterministic)
				if err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					want, wantDet, wantCounters = got, det, res.Counters
					if res.Status == core.BudgetExhausted {
						cut[budget]++
					}
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s budget %d run %d: report differs from run 0:\n%s\nvs\n%s", in.name, budget, run, want, got)
				}
				if res.Counters != wantCounters {
					t.Fatalf("%s budget %d run %d: counters %+v, want %+v", in.name, budget, run, res.Counters, wantCounters)
				}
				if !bytes.Equal(det, wantDet) {
					t.Fatalf("%s budget %d run %d: deterministic metrics differ from run 0:\n%s\nvs\n%s", in.name, budget, run, wantDet, det)
				}
			}
		}
	}
	t.Logf("inputs cut short: %d at budget 200, %d at budget 3000 (of %d)", cut[200], cut[3000], len(inputs))
	if cut[0] != 0 || cut[200] == 0 || cut[3000] == 0 {
		t.Errorf("budget cut-offs %v: want none uncapped and some at each budget", cut)
	}
}

// TestOneScheduleIsReproducibleOnJava extends the relation to the
// plain-Java SecuriBench cases, whose virtual calls the points-to solver
// resolves to several targets (Inter7): repeated runs agree on the report
// with its path witnesses and on the solver counters.
func TestOneScheduleIsReproducibleOnJava(t *testing.T) {
	for _, c := range securibench.Cases() {
		var want []byte
		var wantStats taint.Stats
		// Twenty runs: with the callees in discovery order, Inter7 picked
		// one of its two witnesses per run.
		for run := 0; run < 20; run++ {
			prog, err := securibench.Program(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.AnalyzeJava(context.Background(), prog, securibench.Rules(), securibench.Config(), doGetEntries(prog)...)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			got, err := json.Marshal(res.Report())
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				want, wantStats = got, res.Stats
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s run %d: report differs from run 0:\n%s\nvs\n%s", c.Name, run, want, got)
			}
			if res.Stats != wantStats {
				t.Fatalf("%s run %d: stats %+v, want %+v", c.Name, run, res.Stats, wantStats)
			}
		}
	}
}

// TestLeakLimitReachedPropagates: the taint solver's MaxLeaks cutoff must
// surface as core.LeakLimitReached with exactly the capped leaks.
func TestLeakLimitReachedPropagates(t *testing.T) {
	app := stressApp(t)
	opts := core.DefaultOptions()
	opts.Taint.MaxLeaks = 1
	res, err := core.AnalyzeFiles(context.Background(), app.Files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.LeakLimitReached {
		t.Fatalf("status = %v, want LeakLimitReached", res.Status)
	}
	if n := len(res.Taint.Leaks); n != 1 {
		t.Errorf("recorded %d leaks, want exactly the cap (1)", n)
	}
}

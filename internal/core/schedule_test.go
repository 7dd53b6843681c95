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
)

// TestOneScheduleIsReproducible: an analysis explores in one fixed order,
// so repeated runs of one configuration over one app or plain-Java
// SecuriBench program agree byte for byte — the report with its path
// witnesses, every counter and the deterministic metrics section — on
// completed runs and on runs a propagation budget cuts short at the same
// frontier.
func TestOneScheduleIsReproducible(t *testing.T) {
	type input struct {
		name string
		runs int
		opts core.Options
		// analyze parses the input afresh and analyzes it.
		analyze func(ctx context.Context, opts core.Options) (*core.Result, error)
	}
	app := func(name string, files map[string]string) input {
		return input{name, 10, core.DefaultOptions(), func(ctx context.Context, opts core.Options) (*core.Result, error) {
			return core.AnalyzeFiles(ctx, files, opts)
		}}
	}
	var inputs []input
	for _, c := range droidbench.Cases() {
		inputs = append(inputs, app("droidbench/"+c.Name, c.Files))
	}
	for _, a := range appgen.GenerateCorpus(appgen.Stress, 3, 1) {
		inputs = append(inputs, app(a.Name, a.Files))
	}
	for _, a := range appgen.GenerateCorpus(appgen.Malware, 6, 1) {
		inputs = append(inputs, app(a.Name, a.Files))
	}
	for _, c := range securibench.Cases() {
		// Twenty runs: the points-to solver resolves some virtual calls to
		// several targets, and with the callees in discovery order Inter7
		// picked one of its two witnesses per run.
		inputs = append(inputs, input{"securibench/" + c.Name, 20, securibench.Options(), func(ctx context.Context, opts core.Options) (*core.Result, error) {
			prog, err := securibench.Program(c)
			if err != nil {
				return nil, err
			}
			return core.AnalyzeProgram(ctx, prog, securibench.Entries(prog), opts)
		}})
	}
	cut := map[int]int{} // budget -> inputs it cut short
	for _, in := range inputs {
		for _, budget := range []int{0, 200, 3000} {
			opts := in.opts
			opts.MaxPropagations = budget
			var want, wantDet []byte
			var wantCounters core.Counters
			for run := 0; run < in.runs; run++ {
				rec := metrics.New()
				res, err := in.analyze(metrics.Into(context.Background(), rec), opts)
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

package taint_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/securibench"
	"flowdroid/internal/taint"
)

// TestGateEquivalence: the string-carrier alias gate is pure mechanism.
// On every corpus the gated default and the un-gated reference mode must
// produce byte-identical canonical reports. On the builder-heavy
// benchtaint corpus the gate must also do its job: skip real receiver
// alias searches without costing allocations. That corpus also holds the
// solver's absolute allocation ratchet.
//
// Not parallel: the benchtaint allocation comparison reads process-wide
// malloc counters.
func TestGateEquivalence(t *testing.T) {
	ctx := context.Background()

	t.Run("carriers", func(t *testing.T) {
		for _, f := range taint.CarrierFixtures {
			f := f
			t.Run(f.Name, func(t *testing.T) {
				assertGateNeutral(t, taint.DefaultConfig(), func(conf taint.Config) []byte {
					return canonical(t, taint.AnalyzeFixture(t, f.Src, conf))
				})
			})
		}
	})

	t.Run("droidbench", func(t *testing.T) {
		for _, c := range droidbench.Cases() {
			c := c
			t.Run(c.Name, func(t *testing.T) {
				assertGateNeutral(t, core.DefaultOptions().Taint, func(conf taint.Config) []byte {
					return runApp(t, c.Files, conf).report
				})
			})
		}
	})

	t.Run("securibench", func(t *testing.T) {
		for _, c := range securibench.Cases() {
			c := c
			t.Run(c.Name, func(t *testing.T) {
				assertGateNeutral(t, securibench.Config(), func(conf taint.Config) []byte {
					prog, err := securibench.Program(c)
					if err != nil {
						t.Fatal(err)
					}
					var entries []*ir.Method
					for _, cls := range prog.Classes() {
						if m := cls.Method("doGet", 2); m != nil && !m.Abstract() {
							entries = append(entries, m)
						}
					}
					res, err := core.AnalyzeJava(ctx, prog, securibench.Rules(), conf, entries...)
					if err != nil {
						t.Fatal(err)
					}
					return canonical(t, res)
				})
			})
		}
	})

	t.Run("stress", func(t *testing.T) {
		apps := appgen.GenerateCorpus(appgen.Stress, 6, 42)
		assertGateNeutral(t, core.DefaultOptions().Taint, func(conf taint.Config) []byte {
			p := runCorpus(t, apps, conf)
			if p.leaks == 0 {
				t.Fatal("stress corpus found no leaks; the equivalence check would be vacuous")
			}
			return p.report
		})
	})

	t.Run("benchtaint", func(t *testing.T) {
		apps := appgen.GenerateCorpus(benchTaintProfile(), 4, 7)
		gated := core.DefaultOptions().Taint
		ref := taint.WithoutAliasGate(gated)
		// The framework base is parsed once per process, on first use.
		// Load it before measuring, so that neither pass carries its
		// allocations, whichever subtests ran first.
		framework.NewProgram()
		on := runCorpus(t, apps, gated)
		off := runCorpus(t, apps, ref)
		t.Logf("gated %d of %d receiver alias searches; allocs %d gated vs %d reference; %d propagations",
			on.gated, off.alias, on.mallocs, off.mallocs, on.props)

		if on.gated <= 0 {
			t.Error("gated mode skipped no alias searches: the gate never fired")
		}
		if off.gated != 0 {
			t.Errorf("reference mode gated %d alias searches, want 0", off.gated)
		}
		if off.alias <= 0 {
			t.Error("reference mode ran no alias searches: the corpus stopped exercising builders")
		}
		if on.alias >= off.alias {
			t.Errorf("gated alias queries (%d) not strictly below reference (%d)", on.alias, off.alias)
		}
		// The gate must never cost memory; 2% absorbs cross-pass noise.
		if float64(on.mallocs) > 1.02*float64(off.mallocs) {
			t.Errorf("gated allocs (%d) exceed reference (%d) by more than 2%%", on.mallocs, off.mallocs)
		}
		// The solver's allocation ratchet: with dense per-method solver
		// state (index-keyed jump tables and call-site memos, shared CFG
		// edge lists) the gated pass measures ~101,800 heap allocations,
		// and ~107,400 under -race, whose runtime allocates more; the
		// bound is the -race count plus 5%. A run past it means the
		// allocation diet regressed; raise this only with a measured
		// justification.
		if on.mallocs > 113_000 {
			t.Errorf("gated allocs (%d) exceed the 113,000 ratchet: the solver allocation diet regressed", on.mallocs)
		}
		if on.leaks != off.leaks {
			t.Errorf("leak counts differ: gated %d, reference %d", on.leaks, off.leaks)
		}

		if !bytes.Equal(off.report, on.report) {
			t.Error("reference report differs from gated")
		}
	})
}

// assertGateNeutral runs analyze under the gated mode and the reference
// mode derived from base and requires byte-identical canonical reports.
func assertGateNeutral(t *testing.T, base taint.Config, analyze func(taint.Config) []byte) {
	t.Helper()
	gated := analyze(base)
	if ref := analyze(taint.WithoutAliasGate(base)); !bytes.Equal(ref, gated) {
		t.Errorf("reference report differs from gated:\n%s\nvs\n%s", gated, ref)
	}
}

func canonical(t *testing.T, r *taint.Results) []byte {
	t.Helper()
	js, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// corpusPass aggregates one analysis pass over a set of apps.
type corpusPass struct {
	report  []byte // concatenated canonical reports
	leaks   int
	props   int
	alias   int
	gated   int
	mallocs uint64
}

// runApp analyzes one app through the full pipeline under conf and
// requires a completed run.
func runApp(t *testing.T, files map[string]string, conf taint.Config) corpusPass {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Taint = conf
	res, err := core.AnalyzeFiles(context.Background(), files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Complete {
		t.Fatalf("status %v, want complete", res.Status)
	}
	st := res.Taint.Stats
	return corpusPass{
		report: canonical(t, res.Taint),
		leaks:  len(res.Leaks()),
		props:  res.Counters.Propagations,
		alias:  st.AliasQueries,
		gated:  st.GatedAliasQueries,
	}
}

func runCorpus(t *testing.T, apps []appgen.App, conf taint.Config) corpusPass {
	t.Helper()
	var p corpusPass
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	for _, app := range apps {
		a := runApp(t, app.Files, conf)
		p.report = append(p.report, a.report...)
		p.leaks += a.leaks
		p.props += a.props
		p.alias += a.alias
		p.gated += a.gated
	}
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs0
	return p
}

// benchTaintProfile is the stress profile enlarged so the solver, and
// its StringBuilder-laundering helpers, dominate.
func benchTaintProfile() appgen.Profile {
	p := appgen.Stress
	p.Name = "benchtaint"
	p.Helpers = appgen.MinMax(40, 40)
	p.NoiseMethods = appgen.MinMax(10, 10)
	p.NoiseStmts = appgen.MinMax(20, 30)
	return p
}

package taint_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/ir"
	"flowdroid/internal/securibench"
	"flowdroid/internal/taint"
)

// TestGateEquivalence: the string-carrier alias gate is pure mechanism.
// On every corpus the gated default and the un-gated reference mode must
// produce byte-identical canonical reports, at worker counts 1 and 8. On
// the builder-heavy benchtaint corpus the gate must also do its job: skip
// real receiver alias searches without costing allocations. That corpus
// also holds the solver's absolute allocation ratchet and requires equal
// propagation counts at 1 and 8 workers.
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
		// The solver's allocation ratchet: the gated workers=1 pass
		// measures ~1.04M heap allocations after the allocation diet
		// (interned singleton out-slices, binary access-path interner
		// keys, pre-sized worklists). A run past ~15% headroom means the
		// diet regressed; raise this only with a measured justification.
		if on.mallocs > 1_200_000 {
			t.Errorf("gated allocs (%d) exceed the 1,200,000 ratchet: the solver allocation diet regressed", on.mallocs)
		}
		if on.leaks != off.leaks {
			t.Errorf("leak counts differ: gated %d, reference %d", on.leaks, off.leaks)
		}

		par := runCorpus(t, apps, withWorkers(gated, 8))
		if par.props != on.props {
			t.Errorf("propagations differ between gated workers=1 and 8: %d vs %d", on.props, par.props)
		}
		for _, p := range []struct {
			mode string
			got  []byte
		}{
			{"reference workers=1", off.report},
			{"gated workers=8", par.report},
			{"reference workers=8", runCorpus(t, apps, withWorkers(ref, 8)).report},
		} {
			if !bytes.Equal(p.got, on.report) {
				t.Errorf("%s report differs from gated workers=1", p.mode)
			}
		}
	})
}

// assertGateNeutral runs analyze under the gated mode and the reference
// mode derived from base, at workers 1 and 8, and requires byte-identical
// canonical reports.
func assertGateNeutral(t *testing.T, base taint.Config, analyze func(taint.Config) []byte) {
	t.Helper()
	var want []byte
	var wantMode string
	for _, ref := range []bool{false, true} {
		for _, w := range []int{1, 8} {
			conf := withWorkers(base, w)
			if ref {
				conf = taint.WithoutAliasGate(conf)
			}
			mode := fmt.Sprintf("reference=%v workers=%d", ref, w)
			got := analyze(conf)
			if want == nil {
				want, wantMode = got, mode
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s report differs from %s:\n%s\nvs\n%s", mode, wantMode, want, got)
			}
		}
	}
}

func withWorkers(c taint.Config, w int) taint.Config {
	c.Workers = w
	return c
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

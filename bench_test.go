// Package flowdroid_test is the benchmark harness regenerating every
// table and figure of the paper's evaluation (Section 6). Each benchmark
// corresponds to one experiment of DESIGN.md's per-experiment index and
// reports the headline numbers as custom metrics alongside the usual
// time/op:
//
//	E1  BenchmarkTable1DroidBench / BenchmarkTable1AppScan / ...Fortify
//	E2  BenchmarkFigure1DummyMain
//	E3  BenchmarkFigure2Aliasing
//	E4  BenchmarkInsecureBank
//	E5  BenchmarkCorpusPlay
//	E6  BenchmarkCorpusMalware
//	E7  BenchmarkTable2SecuriBench
//	E8  BenchmarkAblations / BenchmarkAPLength
//
// Run with: go test -bench=. -benchmem
package flowdroid_test

import (
	"context"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/baseline"
	"flowdroid/internal/callbacks"
	"flowdroid/internal/cfg"
	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/lifecycle"
	"flowdroid/internal/pta"
	"flowdroid/internal/securibench"
	"flowdroid/internal/sourcesink"
	"flowdroid/internal/taint"
	"flowdroid/internal/testapps"
)

// benchSuite runs one analyzer over the full DroidBench suite and reports
// the Table 1 bottom rows as metrics.
func benchSuite(b *testing.B, a droidbench.Analyzer) {
	b.Helper()
	var score droidbench.SuiteScore
	for i := 0; i < b.N; i++ {
		score = droidbench.Score(droidbench.RunSuite(a))
	}
	b.ReportMetric(float64(score.TP), "TP")
	b.ReportMetric(float64(score.FP), "FP")
	b.ReportMetric(float64(score.Missed), "missed")
	b.ReportMetric(100*score.Precision, "precision%")
	b.ReportMetric(100*score.Recall, "recall%")
}

// E1: Table 1, FlowDroid column (expect 26 TP / 4 FP / 2 missed; 86%/93%).
func BenchmarkTable1DroidBench(b *testing.B) { benchSuite(b, droidbench.FlowDroid()) }

// E1: Table 1, AppScan-like column (expect ≈14 TP, recall ≈50%).
func BenchmarkTable1AppScan(b *testing.B) { benchSuite(b, baseline.AppScanLike()) }

// E1: Table 1, Fortify-like column (expect ≈17 TP, recall ≈61%).
func BenchmarkTable1Fortify(b *testing.B) { benchSuite(b, baseline.FortifyLike()) }

// E2: Figure 1 — dummy-main generation for the Listing 1 app.
func BenchmarkFigure1DummyMain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, err := apk.LoadFiles(testapps.LeakageApp)
		if err != nil {
			b.Fatal(err)
		}
		cbs := callbacks.Discover(context.Background(), app)
		if _, err := lifecycle.Generate(app, cbs, lifecycle.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// figure2Src is the deep-aliasing example the bidirectional solvers must
// resolve (Figure 2 of the paper).
const figure2Src = `
class Src {
  static method secret(): java.lang.String;
}
class Snk {
  static method leak(x: java.lang.String): void;
}
class A {
  field g: Data
  method init(): void {
    return
  }
}
class Data {
  field f: java.lang.String
  method init(): void {
    return
  }
}
class Main {
  static method foo(z: A): void {
    x = z.g
    w = Src.secret()
    x.f = w
  }
  static method main(): void {
    a = new A()
    d = new Data()
    a.g = d
    b = a.g
    Main.foo(a)
    t = b.f
    Snk.leak(t)
  }
}
`

// E3: Figure 2 — the on-demand backward alias analysis on the paper's
// deep-aliasing example (expect exactly 1 leak).
func BenchmarkFigure2Aliasing(b *testing.B) {
	prog, err := core.ParseJava(figure2Src, "fig2.ir")
	if err != nil {
		b.Fatal(err)
	}
	entry := prog.Class("Main").Method("main", 0)
	graph := pta.Build(context.Background(), prog, entry).Graph
	icfg := cfg.NewICFG(prog, graph)
	mgr, err := sourcesink.Parse(prog,
		"source <Src: secret/0> -> return\nsink <Snk: leak/1> -> arg0\n")
	if err != nil {
		b.Fatal(err)
	}
	var leaks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := taint.Analyze(context.Background(), icfg, mgr, taint.DefaultConfig(), entry)
		leaks = len(res.DistinctSourceSinkPairs())
	}
	b.ReportMetric(float64(leaks), "leaks")
}

// E4: RQ2 — InsecureBank, expect 7 leaks / 0 FP / 0 FN. The paper's
// wall-clock (31 s on a 2010 laptop against real bytecode) translates to
// the time/op reported here against the IR model.
func BenchmarkInsecureBank(b *testing.B) {
	var leaks int
	for i := 0; i < b.N; i++ {
		res, err := core.AnalyzeFiles(context.Background(), insecurebank.Files, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		leaks = len(res.Leaks())
	}
	b.ReportMetric(float64(leaks), "leaks")
}

// E5: RQ3a — Play-profile corpus (50 apps per iteration; scale with
// cmd/corpus -n 500 for the full population). Expect most apps leaking
// identifiers into logs/preferences and zero SMS exfiltration.
func BenchmarkCorpusPlay(b *testing.B) {
	var stats appgen.CorpusStats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = appgen.RunCorpus(appgen.Play, 50, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.AvgLeaksPerApp(), "leaks/app")
	b.ReportMetric(float64(stats.AppsWithLeaks)/float64(stats.Apps)*100, "apps-leaking%")
	b.ReportMetric(float64(stats.Times[core.Complete.String()].Avg().Microseconds()), "µs/app")
}

// E6: RQ3b — malware-profile corpus (100 apps per iteration; scale with
// cmd/corpus -n 1000). Expect ≈1.85 leaks per app, SMS-dominated.
func BenchmarkCorpusMalware(b *testing.B) {
	var stats appgen.CorpusStats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = appgen.RunCorpus(appgen.Malware, 100, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.AvgLeaksPerApp(), "leaks/app")
	b.ReportMetric(float64(stats.Times[core.Complete.String()].Avg().Microseconds()), "µs/app")
}

// E7: Table 2 — SecuriBench Micro (expect 117/121 TP, 9 FP).
func BenchmarkTable2SecuriBench(b *testing.B) {
	var tp, exp, fp int
	for i := 0; i < b.N; i++ {
		results, err := securibench.RunSuite()
		if err != nil {
			b.Fatal(err)
		}
		tp, exp, fp = 0, 0, 0
		for _, r := range results {
			tp += r.TP
			exp += r.Expected
			fp += r.FP
		}
	}
	b.ReportMetric(float64(tp), "TP")
	b.ReportMetric(float64(exp), "expected")
	b.ReportMetric(float64(fp), "FP")
}

// E8: ablations — each design choice of DESIGN.md switched off, swept
// over DroidBench. The recall/precision metrics show what each feature
// buys.
func BenchmarkAblations(b *testing.B) {
	for _, ab := range baseline.Ablations() {
		ab := ab
		b.Run(ab.Name, func(b *testing.B) {
			benchSuite(b, baseline.AblationAnalyzer(ab))
		})
	}
}

// E8: the access-path length sweep of the paper's "tradeoffs in
// access-path lengths" discussion: shorter paths are faster but lose
// precision.
func BenchmarkAPLength(b *testing.B) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		k := k
		b.Run(benchName(k), func(b *testing.B) {
			benchSuite(b, baseline.APLengthAnalyzer(k))
		})
	}
}

func benchName(k int) string {
	return "k=" + string(rune('0'+k))
}

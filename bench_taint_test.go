package flowdroid_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
)

// BenchmarkSmokeTaint measures the parallel taint solver against the
// sequential drain on an oversized appgen corpus and persists the result
// as BENCH_taint.json (schema-checked by scripts/checkbench in ci.sh), so
// the bench trajectory survives the run instead of scrolling away on
// stdout.
//
// The corpus is a stress-derived fixture enlarged beyond the resilience
// tests' profile: big enough that per-app solve time dominates setup,
// which is what a worker pool can actually attack on a multi-core host.

// benchTaintWorkers is the parallel pool size the speedup is quoted for.
const benchTaintWorkers = 8

// benchTaintApps is the corpus size; small enough for -benchtime=1x
// smoke runs, large enough to keep the solvers busy.
const benchTaintApps = 4

type benchTaintRun struct {
	Workers      int     `json:"workers"`
	WallMS       float64 `json:"wall_ms"`
	Propagations int     `json:"propagations"`
	Leaks        int     `json:"leaks"`
	// Allocs is the heap allocation count (runtime Mallocs delta) of the
	// corpus pass — the memory-churn axis of the solver trajectory.
	Allocs uint64 `json:"allocs"`
}

type benchTaintReport struct {
	Bench      string          `json:"bench"`
	Profile    string          `json:"profile"`
	Apps       int             `json:"apps"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Runs       []benchTaintRun `json:"runs"`
	// Speedup is sequential wall time over parallel wall time.
	Speedup float64 `json:"speedup"`
	// Note explains the speedup (or its absence) on this host.
	Note string `json:"note"`
}

// benchTaintProfile derives the bench fixture from the stress profile:
// substantially more helper classes and noise so the propagation loop,
// not pipeline setup, dominates.
func benchTaintProfile() appgen.Profile {
	p := appgen.Stress
	p.Name = "benchtaint"
	p.Helpers = appgen.MinMax(40, 40)
	p.NoiseMethods = appgen.MinMax(10, 10)
	p.NoiseStmts = appgen.MinMax(20, 30)
	return p
}

func BenchmarkSmokeTaint(b *testing.B) {
	apps := appgen.GenerateCorpus(benchTaintProfile(), benchTaintApps, 7)

	// analyzeAll runs the whole corpus at one worker count, returning
	// wall time, solver counters, the heap allocation count, and the
	// concatenated canonical reports for the equivalence assertion.
	analyzeAll := func(workers int) corpusPass {
		opts := core.DefaultOptions()
		opts.Taint.Workers = workers
		var p corpusPass
		var reports bytes.Buffer
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocs0 := ms.Mallocs
		start := time.Now()
		for _, app := range apps {
			res, err := core.AnalyzeFiles(context.Background(), app.Files, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Status != core.Complete {
				b.Fatalf("workers=%d: app %s status %v", workers, app.Name, res.Status)
			}
			p.props += res.Counters.Propagations
			p.leaks += len(res.Leaks())
			js, err := res.Taint.CanonicalJSON()
			if err != nil {
				b.Fatal(err)
			}
			reports.Write(js)
		}
		p.wall = time.Since(start)
		runtime.ReadMemStats(&ms)
		p.allocs = ms.Mallocs - allocs0
		p.reports = reports.Bytes()
		return p
	}

	var seq, par benchTaintRun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seqP := analyzeAll(1)
		parP := analyzeAll(benchTaintWorkers)
		if !bytes.Equal(seqP.reports, parP.reports) {
			b.Fatalf("leak reports differ between 1 and %d workers", benchTaintWorkers)
		}
		if seqP.props != parP.props {
			b.Fatalf("propagations differ between 1 and %d workers: %d vs %d",
				benchTaintWorkers, seqP.props, parP.props)
		}
		seq = benchTaintRun{Workers: 1, WallMS: float64(seqP.wall.Microseconds()) / 1000, Propagations: seqP.props, Leaks: seqP.leaks, Allocs: seqP.allocs}
		par = benchTaintRun{Workers: benchTaintWorkers, WallMS: float64(parP.wall.Microseconds()) / 1000, Propagations: parP.props, Leaks: parP.leaks, Allocs: parP.allocs}
	}
	b.StopTimer()

	speedup := 0.0
	if par.WallMS > 0 {
		speedup = seq.WallMS / par.WallMS
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(seq.Leaks), "leaks")
	b.ReportMetric(float64(seq.Allocs), "allocs/op")

	rep := benchTaintReport{
		Bench:      "BenchmarkSmokeTaint",
		Profile:    "benchtaint (stress-derived, enlarged)",
		Apps:       benchTaintApps,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Runs:       []benchTaintRun{seq, par},
		Speedup:    speedup,
		Note:       benchTaintNote(speedup),
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_taint.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// corpusPass aggregates one full-corpus analysis pass.
type corpusPass struct {
	wall    time.Duration
	props   int
	leaks   int
	allocs  uint64
	reports []byte
}

// benchTaintNote records why the measured speedup is what it is, so the
// persisted artifact is interpretable without knowing the host.
func benchTaintNote(speedup float64) string {
	switch {
	case speedup >= 1.5:
		return fmt.Sprintf("parallel solver reached %.2fx over sequential at %d workers", speedup, benchTaintWorkers)
	case runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2:
		return fmt.Sprintf(
			"host exposes %d CPU(s) with GOMAXPROCS=%d: a wall-clock speedup is physically unattainable here — the %d workers can only interleave on one core and the measured ratio (%.2fx) reflects queue/lock overhead, not the design. Cross-worker-count equivalence (identical reports and propagation counts) was still verified by this bench and by the equivalence test suites.",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), benchTaintWorkers, speedup)
	default:
		return fmt.Sprintf("speedup %.2fx below the 1.5x target despite %d CPUs: workload may still be setup-dominated on this host", speedup, runtime.NumCPU())
	}
}

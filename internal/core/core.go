// Package core wires the full FlowDroid pipeline of Figure 4: load the
// app package (manifest, layout XMLs, code), detect entry points, sources
// and sinks, generate the dummy main method, build the call graph and
// interprocedural CFG, and run the bidirectional taint analysis.
//
// Every entry point is bounded: the context's deadline and the options'
// propagation budget cut a runaway analysis short, and a panicking stage
// is recovered into an explained result. A run therefore always returns
// either a load error or a Result whose Status says how far it got.
package core

import (
	"context"
	"fmt"
	"io/fs"
	"time"

	"flowdroid/internal/apk"
	"flowdroid/internal/callbacks"
	"flowdroid/internal/callgraph"
	"flowdroid/internal/cfg"
	"flowdroid/internal/cone"
	"flowdroid/internal/constprop"
	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/irlint"
	"flowdroid/internal/irtext"
	"flowdroid/internal/lifecycle"
	"flowdroid/internal/metrics"
	"flowdroid/internal/pta"
	"flowdroid/internal/scene"
	"flowdroid/internal/sourcesink"
	"flowdroid/internal/summarystore"
	"flowdroid/internal/taint"
)

// Options configures a pipeline run. The zero value is not useful; start
// from DefaultOptions.
type Options struct {
	// Taint configures the taint engine.
	Taint taint.Config
	// Lifecycle configures dummy-main generation.
	Lifecycle lifecycle.Options
	// SourceSinkRules optionally replaces the built-in source/sink
	// configuration (textual format of internal/sourcesink).
	SourceSinkRules string
	// Query restricts the analysis to the selected sink rules (demand-
	// driven mode). The zero value analyzes every configured sink. A
	// query-mode run's canonical report is byte-identical to the
	// whole-program report filtered to the queried sinks; it gets there
	// faster by modeling only components inside the sinks' reachability
	// cone and pruning exploration at the cone boundary.
	Query Query
	// Lint runs the IR verifier (internal/irlint) between the front-end
	// and the solvers. Error-severity diagnostics abort the run with
	// Status == InvalidProgram before any solver executes; warnings are
	// reported in Result.Lint.
	Lint bool
	// LintEnable/LintDisable are comma-separated analyzer name lists
	// narrowing the verifier (empty LintEnable means all analyzers).
	LintEnable  string
	LintDisable string
	// UseCHA selects the class-hierarchy call graph instead of the
	// points-to-refined one (faster, less precise).
	UseCHA bool
	// ResolveReflection runs the interprocedural constant-string
	// propagation pass (internal/constprop) between scene construction
	// and call-graph building: reflective call sites whose class and
	// method names resolve to a bounded constant set become real call
	// edges (through synthesized bridge methods), and every unresolvable
	// site is recorded in Result.Soundness. Default on; -no-reflection
	// on the CLIs turns it off, restoring the pre-reflection pipeline
	// byte for byte.
	ResolveReflection bool
	// MaxPropagations bounds the taint solver's attempted propagations;
	// 0 is unlimited. Exhausting the budget yields Status ==
	// BudgetExhausted with the partial leak set.
	MaxPropagations int
	// SummaryStore, when non-nil, enables the persistent method-summary
	// store (see internal/summarystore; summarystore.Open(dir) opens one,
	// and Open("") returns nil): the taint solver replays summaries
	// recorded by earlier completed runs for methods whose bodies and
	// resolved callees are unchanged, and persists fresh ones after a
	// completed run. The store never changes the leak report — only how
	// much of it is recomputed. Corrupt or stale entries are treated as
	// cache misses, never errors. One store can be shared by many runs:
	// a resident daemon or a corpus run opens it once.
	SummaryStore *summarystore.Store
}

// DefaultOptions mirrors the paper's FlowDroid configuration.
func DefaultOptions() Options {
	return Options{
		Taint:             taint.DefaultConfig(),
		Lifecycle:         lifecycle.DefaultOptions(),
		ResolveReflection: true,
	}
}

// SoundnessReport is the constant-propagation pass's account of the
// reflective surface: resolved site count plus every site left opaque
// with its reason. See internal/constprop.
type SoundnessReport = constprop.SoundnessReport

// UnresolvedSite is one reflective call the analysis left opaque.
type UnresolvedSite = constprop.UnresolvedSite

// Result is the outcome of a full pipeline run.
type Result struct {
	App        *apk.App
	EntryPoint *ir.Method
	Callbacks  *callbacks.Result
	CallGraph  *callgraph.Graph
	Taint      *taint.Results

	// Status says whether the run completed or how it was cut short.
	// Fields above are populated up to the stage that was reached; Taint
	// is never nil.
	Status Status
	// Failure carries the panic a Recovered run was cut short by.
	Failure *Failure
	// Lint holds the IR verifier's diagnostics when Options.Lint is set
	// (nil otherwise). Status == InvalidProgram iff it has errors.
	Lint *irlint.Result
	// Soundness reports what the reflection resolution pass could and
	// could not see through (nil when Options.ResolveReflection is off or
	// the pass was never reached). A leak report is only as complete as
	// this report's Unresolved list is empty.
	Soundness *SoundnessReport
	// Counters are the per-stage effort counters, partial on truncation.
	Counters Counters
	// PassTimes is the wall time each pass spent in this run, charged
	// even when the pass was cut short by a panic or a deadline, so its
	// keys are exactly the passes the run reached; each ran once.
	// It is the run's only timer: the taint solve is PassTimes["taint"]
	// (absent when the run never reached it), setup is the sum of the
	// other passes, and the corpus harness aggregates them into its
	// slowest-pass table.
	PassTimes map[string]time.Duration
}

// Leaks returns the distinct (source, sink) leaks found.
func (r *Result) Leaks() []*taint.Leak { return r.Taint.DistinctSourceSinkPairs() }

// AnalyzeApp runs the pipeline on an already loaded app, each pass at
// most once. The context bounds the whole run: on expiry the current
// stage stops cleanly and the partial result is returned with Status ==
// DeadlineExceeded; an exhausted propagation budget returns the leaks
// found so far with Status == BudgetExhausted. A panic in any stage is
// recovered into Status == Recovered. Load and configuration problems
// are still reported as ordinary errors.
//
// The result is the run's record. On the way out it is published into
// the context's metrics recorder, if any.
func AnalyzeApp(ctx context.Context, app *apk.App, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pl := newPipeline(app, metrics.From(ctx))
	res, err := pl.run(ctx, opts)
	if err != nil {
		return nil, err
	}
	publish(pl.rec, res)
	return res, nil
}

func manager(prog ir.Hierarchy, opts Options) (*sourcesink.Manager, error) {
	if opts.SourceSinkRules == "" {
		return sourcesink.Default(prog), nil
	}
	mgr, err := sourcesink.Parse(prog, opts.SourceSinkRules)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return mgr, nil
}

// AnalyzeFiles loads an in-memory app package and runs the pipeline.
func AnalyzeFiles(ctx context.Context, files map[string]string, opts Options) (*Result, error) {
	app, err := apk.LoadFiles(files)
	if err != nil {
		return nil, err
	}
	return AnalyzeApp(ctx, app, opts)
}

// AnalyzeDir loads an app package from a directory and runs the pipeline.
func AnalyzeDir(ctx context.Context, dir string, opts Options) (*Result, error) {
	app, err := apk.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return AnalyzeApp(ctx, app, opts)
}

// AnalyzeZip loads an app package from a zip archive and runs the
// pipeline.
func AnalyzeZip(ctx context.Context, path string, opts Options) (*Result, error) {
	app, err := apk.LoadZip(path)
	if err != nil {
		return nil, err
	}
	return AnalyzeApp(ctx, app, opts)
}

// AnalyzeFS loads an app package from any fs.FS and runs the pipeline.
func AnalyzeFS(ctx context.Context, fsys fs.FS, opts Options) (*Result, error) {
	app, err := apk.Load(fsys)
	if err != nil {
		return nil, err
	}
	return AnalyzeApp(ctx, app, opts)
}

// AnalyzeJava runs the taint analysis on a plain Java-style program (no
// Android lifecycle): custom entry points, custom source/sink rules. This
// is the SecuriBench Micro use case of RQ4. The context bounds the run
// the same way AnalyzeApp's does.
func AnalyzeJava(ctx context.Context, prog *ir.Program, rules string, conf taint.Config, entries ...*ir.Method) (*taint.Results, error) {
	return AnalyzeJavaQuery(ctx, prog, rules, conf, Query{}, entries...)
}

// AnalyzeJavaQuery is AnalyzeJava restricted to a sink query: only the
// selected sink rules report leaks, and the solver prunes exploration
// outside their reachability cone. An empty query analyzes every sink.
func AnalyzeJavaQuery(ctx context.Context, prog *ir.Program, rules string, conf taint.Config, q Query, entries ...*ir.Method) (*taint.Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc := scene.New(prog)
	mgr, err := sourcesink.Parse(sc, rules)
	if err != nil {
		return nil, err
	}
	if !q.IsAll() {
		if err := mgr.RestrictSinks(q.Sinks); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		cn := cone.Build(ctx, sc, mgr)
		if ctx.Err() == nil {
			conf.Cone = &taint.Cone{Relevant: cn.Relevant, Methods: cn.Methods()}
		}
	}
	graph := pta.Build(ctx, sc, entries...).Graph
	icfg := cfg.NewICFG(sc, graph)
	return taint.Analyze(ctx, icfg, mgr, conf, entries...), nil
}

// ParseJava builds a linked plain-Java program (framework stubs plus the
// given IR source) for AnalyzeJava callers: the entry point for analyzing
// non-Android code such as the SecuriBench Micro suite.
func ParseJava(src, filename string) (*ir.Program, error) {
	prog := framework.NewProgram()
	if err := irtext.ParseInto(prog, src, filename); err != nil {
		return nil, err
	}
	return prog, prog.Link()
}

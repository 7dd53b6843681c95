package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"sort"
	"time"

	"flowdroid/internal/apk"
	"flowdroid/internal/callbacks"
	"flowdroid/internal/callgraph"
	"flowdroid/internal/cfg"
	"flowdroid/internal/cone"
	"flowdroid/internal/constprop"
	"flowdroid/internal/ir"
	"flowdroid/internal/irlint"
	"flowdroid/internal/lifecycle"
	"flowdroid/internal/metrics"
	"flowdroid/internal/pta"
	"flowdroid/internal/scene"
	"flowdroid/internal/sourcesink"
	"flowdroid/internal/summarystore"
	"flowdroid/internal/taint"
)

// PassStat counts how often a pipeline pass executed across a run,
// degrade-ladder attempts included: an upstream pass runs once however
// many attempts follow, the taint pass once per attempt.
type PassStat struct {
	Runs int `json:"runs"`
}

// PassStats maps pass names (scene, sourcesink, verify, constprop, cone,
// callbacks, lifecycle, callgraph, icfg, summaries, taint) to their run
// counters.
type PassStats map[string]PassStat

// TotalRuns sums the Runs of every pass.
func (ps PassStats) TotalRuns() int {
	n := 0
	for _, st := range ps {
		n += st.Runs
	}
	return n
}

// String renders the stats as "pass N run(s)" pairs in name order.
func (ps PassStats) String() string {
	names := make([]string, 0, len(ps))
	for n := range ps {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %d run(s)", n, ps[n].Runs)
	}
	return out
}

// pipeline is one AnalyzeApp call's pass graph, Figure 4 of the paper run
// straight through. prepare runs the passes no degrade rung changes, once:
// scene, sourcesink, verify, constprop, cone, callbacks and lifecycle.
// solve runs the rest — callgraph, icfg, summaries and taint — once per
// attempt; a rung changes only UseCHA and the access-path length, so solve
// rebuilds the call graph and ICFG only when UseCHA differs from the graph
// it holds. The ladder retries only BudgetExhausted, which only a finished
// solve prefix reaches, so no partial product is ever reused.
type pipeline struct {
	app *apk.App
	rec *metrics.Recorder // nil when metrics are disabled

	runs  map[string]int
	times map[string]time.Duration
	stage string // the pass running now, named by a Recovered result

	// Products of prepare.
	sc        *scene.Scene
	mgr       *sourcesink.Manager
	reflEdges map[ir.Stmt][]*ir.Method
	cn        *cone.Cone

	// The call graph and ICFG solve holds, built under UseCHA == cha.
	cha      bool
	graph    *callgraph.Graph
	ptaProps int
	icfg     *cfg.ICFG
}

// clickHandlers collects each layout's declaratively registered click
// handlers, keyed by layout name, for the verifier's registrations
// analyzer.
func clickHandlers(app *apk.App) map[string][]string {
	out := make(map[string][]string)
	for name, l := range app.Layouts {
		if hs := l.ClickHandlers(); len(hs) > 0 {
			out[name] = hs
		}
	}
	return out
}

// summaryFingerprint digests every configuration input that changes the
// taint solver's transfer functions or seeds, scoping the persistent
// summary store's namespace: two runs may only share summaries when they
// would compute identical per-method-context facts. The budget knobs
// (MaxPropagations, MaxLeaks) are deliberately excluded — they change
// how much is explored, never what a completed run computes.
// The store format version is folded in so a scheme change invalidates
// wholesale, and the layout password controls are included because they
// synthesize per-app source rules.
func summaryFingerprint(app *apk.App, opts Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d\n", summarystore.FormatVersion)
	fmt.Fprintf(h, "rules:%s\n", opts.SourceSinkRules)
	fmt.Fprintf(h, "query:%s\n", opts.Query.Fingerprint())
	tc := opts.Taint
	fmt.Fprintf(h, "taint:%d,%t,%t,%t,%t,%t,%t\n",
		tc.APLength, tc.EnableAliasing, tc.EnableActivation, tc.InjectContext,
		tc.FieldSensitive, tc.FlowSensitive, tc.ArrayIndexSensitive)
	fmt.Fprintf(h, "wrapper:%s\n", tc.Wrapper.Fingerprint())
	fmt.Fprintf(h, "cha:%t\n", opts.UseCHA)
	// Reflection resolution changes which call edges exist — and hence
	// which callee facts a method summary encodes — so summaries recorded
	// with and without it are never interchangeable.
	fmt.Fprintf(h, "reflect:%t\n", opts.ResolveReflection)
	fmt.Fprintf(h, "lifecycle:%+v\n", opts.Lifecycle)
	var layouts []string
	for name, l := range app.Layouts {
		for _, c := range l.PasswordControls() {
			layouts = append(layouts, name+"/"+c.Kind+"#"+c.ID)
		}
	}
	sort.Strings(layouts)
	for _, l := range layouts {
		fmt.Fprintf(h, "layout:%s\n", l)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func newPipeline(app *apk.App, rec *metrics.Recorder) *pipeline {
	return &pipeline{
		app:   app,
		rec:   rec,
		runs:  make(map[string]int),
		times: make(map[string]time.Duration),
	}
}

// pass runs f as the pipeline pass name. It counts the run up front — so
// a pass that panics still counts as attempted — makes name the stage a
// panic is reported at, and charges f's wall time to the pass and its
// "pipeline.<name>" trace span, also when f panics or a deadline cuts it
// short.
func (pl *pipeline) pass(name string, f func() error) error {
	pl.stage = name
	pl.runs[name]++
	sp := pl.rec.StartSpan("pipeline." + name)
	start := time.Now()
	defer func() {
		pl.times[name] += time.Since(start)
		sp.End()
	}()
	return f()
}

// finish is deferred by prepare and solve. It turns a panic into a
// Recovered result naming the stage it struck, and stamps the result with
// the run's cumulative Passes and PassTimes — its only timing record —
// and body counts.
func (pl *pipeline) finish(res *Result) {
	if r := recover(); r != nil {
		res.Status = Recovered
		res.Failure = &Failure{Stage: pl.stage, Value: r, Stack: stackTrace()}
	}
	res.Passes = make(PassStats, len(pl.runs))
	for n, runs := range pl.runs {
		res.Passes[n] = PassStat{Runs: runs}
	}
	res.PassTimes = maps.Clone(pl.times)
	if prog := pl.app.Program; prog != nil {
		res.Counters.Bodies, res.Counters.BodiesParsed = prog.BodyCounts()
	}
}

// prepare runs the passes upstream of the call graph. Its result holds
// what every attempt's result starts from — Lint, Soundness, Callbacks,
// EntryPoint and the reflection and cone counters; a Status other than
// Complete ends the run before any solve.
func (pl *pipeline) prepare(ctx context.Context, opts Options) (res *Result, err error) {
	res = &Result{App: pl.app, Status: Complete, Taint: &taint.Results{}}
	defer pl.finish(res)
	truncated := func() (*Result, error) {
		res.Status = DeadlineExceeded
		return res, nil
	}

	pl.pass("scene", func() error {
		pl.sc = scene.New(pl.app.Program)
		return nil
	})

	// Source/sink manager: built early because the verify and cone passes
	// both consume it.
	if err := pl.pass("sourcesink", func() error {
		m, err := manager(pl.sc, opts)
		if err != nil {
			return err
		}
		m.AttachApp(pl.app)
		if !opts.Query.IsAll() {
			if err := m.RestrictSinks(opts.Query.Sinks); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
		pl.mgr = m
		return nil
	}); err != nil {
		return nil, err
	}

	// Verify: the IR lint pass, gating the solvers on a semantically
	// valid program. Error diagnostics end the run here — the solvers
	// assume invariants (resolvable branch targets, registered locals)
	// that a defective program would violate, typically by panicking deep
	// inside a flow function. Runs before dummy-main generation so
	// synthetic lifecycle code is never linted.
	if opts.Lint {
		if err := pl.pass("verify", func() error {
			// The verifier reads every body: parse them all first, so a
			// body that does not parse ends the run with its error.
			if err := pl.app.Program.ParseAll(); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			ans, err := irlint.Select(opts.LintEnable, opts.LintDisable)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			cfg := irlint.Config{
				Analyzers:     ans,
				Sources:       pl.mgr.Sources(),
				Sinks:         pl.mgr.Sinks(),
				ClickHandlers: clickHandlers(pl.app),
			}
			if pl.mgr.Restricted() {
				cfg.QueriedSinks = pl.mgr.QueriedSinks()
			}
			res.Lint = irlint.Run(pl.sc, cfg)
			return nil
		}); err != nil {
			return nil, err
		}
		if pl.rec != nil {
			pl.rec.Gauge("lint.errors", metrics.Deterministic).Set(int64(res.Lint.Errors()))
			pl.rec.Gauge("lint.warnings", metrics.Deterministic).Set(int64(res.Lint.Warnings()))
		}
		if res.Lint.HasErrors() {
			res.Status = InvalidProgram
			return res, nil
		}
	}

	// Constprop: interprocedural constant-string propagation plus
	// reflective-edge materialization. Runs before the cone so resolved
	// reflective edges participate in the backward closure like ordinary
	// call edges, and before dummy-main generation so synthetic lifecycle
	// code is never scanned.
	if opts.ResolveReflection {
		var r *constprop.Result
		if err := pl.pass("constprop", func() error {
			r = constprop.Analyze(ctx, pl.sc)
			if r.Truncated {
				return nil
			}
			edges, err := r.Materialize(pl.app.Program)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			if len(edges) > 0 {
				// Materialization added the bridges class to the program.
				pl.sc.Refresh()
			}
			pl.reflEdges = edges
			return nil
		}); err != nil {
			return nil, err
		}
		if ctx.Err() != nil || r.Truncated {
			return truncated()
		}
		res.Soundness = r.Report
		res.Counters.ReflectionResolved = r.Report.ResolvedSites
		res.Counters.ReflectionUnresolved = len(r.Report.Unresolved)
	}

	// Cone: the backward reachability cone of the queried sinks, built
	// over app code only (before dummy-main generation — the synthetic
	// lifecycle code never contains sinks, and the cone must not depend
	// on the skip set it feeds).
	if !opts.Query.IsAll() {
		pl.pass("cone", func() error {
			pl.cn = cone.BuildWithExtra(ctx, pl.sc, pl.mgr, pl.reflEdges)
			return nil
		})
		if ctx.Err() != nil {
			return truncated()
		}
	}

	pl.pass("callbacks", func() error {
		res.Callbacks = callbacks.DiscoverWith(ctx, pl.app, pl.sc)
		return nil
	})
	if ctx.Err() != nil {
		return truncated()
	}

	pl.stage = "lifecycle"
	lopts := opts.Lifecycle
	if pl.cn != nil {
		// Components entirely outside the escape closure cannot influence
		// the queried sinks (static fields are the only cross-component
		// channel) — leave them out of dummy-main modeling.
		var skip []string
		for _, comp := range lifecycle.ModeledComponents(pl.app, lopts) {
			if pl.cn.ComponentSkippable(res.Callbacks.EntryPoints(pl.sc, comp)) {
				skip = append(skip, comp.Class)
			}
		}
		sort.Strings(skip)
		lopts.SkipComponents = skip
		res.Counters.ConeMethods = pl.cn.Methods()
		res.Counters.SkippedComponents = len(skip)
	}
	if err := pl.pass("lifecycle", func() error {
		// The dummy main may already exist in the program (a previous
		// AnalyzeApp call on the same app); reuse it only when it was
		// generated for the same component skip set — its marker field
		// records the set it encoded.
		if c := pl.app.Program.Class(lifecycle.DummyMainClass); c != nil {
			if m := c.Method("dummyMain", 0); m != nil {
				if lifecycle.SkipFingerprintOf(c) != lopts.SkipFingerprint() {
					return fmt.Errorf("core: %s was generated under a different sink query; reload the app to analyze it under a new query", lifecycle.DummyMainClass)
				}
				res.EntryPoint = m
				return nil
			}
		}
		m, err := lifecycle.GenerateWith(pl.app, res.Callbacks, pl.sc, lopts)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		// Generation added the dummy-main class to the program.
		pl.sc.Refresh()
		res.EntryPoint = m
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// solve is one attempt under opts: call graph, ICFG, summary-store
// session and the taint solve. Its result starts from a copy of
// prepared, prepare's Complete result.
func (pl *pipeline) solve(ctx context.Context, opts Options, prepared *Result) (res *Result) {
	attempt := *prepared
	res = &attempt
	defer pl.finish(res)

	pl.stage = "callgraph"
	if pl.graph == nil || pl.cha != opts.UseCHA {
		pl.icfg = nil
		pl.pass("callgraph", func() error {
			if opts.UseCHA {
				pl.graph, pl.ptaProps = callgraph.BuildCHAWithExtra(ctx, pl.sc, pl.reflEdges, res.EntryPoint), 0
			} else {
				p := pta.BuildWithExtra(ctx, pl.sc, pl.reflEdges, res.EntryPoint)
				pl.graph, pl.ptaProps = p.Graph, p.Propagations
			}
			pl.cha = opts.UseCHA
			return nil
		})
	}
	res.CallGraph = pl.graph
	res.Counters.PTAPropagations = pl.ptaProps
	res.Counters.CallGraphEdges = pl.graph.NumEdges()
	if pl.rec != nil {
		pl.rec.Gauge("callgraph.reachable", metrics.Deterministic).Set(int64(len(pl.graph.Reachable())))
	}
	if ctx.Err() != nil {
		res.Status = DeadlineExceeded
		return res
	}

	if pl.icfg == nil {
		// The per-method CFGs inside the ICFG are shared via the scene.
		pl.pass("icfg", func() error {
			pl.icfg = cfg.NewICFG(pl.sc, pl.graph)
			return nil
		})
	}

	// Summaries: the persistent-store session for this attempt, scoped by
	// the configuration fingerprint and the call graph it hashed methods
	// against. Every rung changes the fingerprint (CHA, access-path
	// length), so each attempt opens its own session.
	var sess *summarystore.Session
	if opts.SummaryStore != nil {
		pl.pass("summaries", func() error {
			sumFP := summaryFingerprint(pl.app, opts)
			sess = opts.SummaryStore.Session(pl.app.Package, sumFP, summarystore.HashMethods(pl.graph))
			return nil
		})
	}

	tc := opts.Taint
	if opts.MaxPropagations > 0 {
		tc.MaxPropagations = opts.MaxPropagations
	}
	if pl.cn != nil {
		tc.Cone = &taint.Cone{
			Relevant:          pl.cn.Relevant,
			Methods:           pl.cn.Methods(),
			SkippedComponents: res.Counters.SkippedComponents,
		}
	}
	if sess != nil {
		tc.Summaries = sess
	}
	pl.pass("taint", func() error {
		res.Taint = taint.Analyze(ctx, pl.icfg, pl.mgr, tc, res.EntryPoint)
		return nil
	})
	if sess != nil {
		// Write back the summaries a completed run recorded. A flush
		// failure (full disk, permissions) degrades the cache, never the
		// analysis: count it in the result and move on.
		if err := sess.Flush(); err != nil {
			res.Counters.SummaryFlushErrors = 1
		}
	}
	countersFromTaint(&res.Counters, res.Taint.Stats)
	switch res.Taint.Status {
	case taint.Cancelled:
		res.Status = DeadlineExceeded
	case taint.BudgetExhausted:
		res.Status = BudgetExhausted
	case taint.LeakLimitReached:
		res.Status = LeakLimitReached
	}
	return res
}

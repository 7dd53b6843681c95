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

// PassStat counts how often a pipeline pass actually executed (Runs) and
// how often its memoized artifact was reused instead (Hits). The degrade
// ladder is the main consumer: an access-path-length rung must re-run
// only the taint pass, so every upstream pass records a hit.
type PassStat struct {
	Runs int `json:"runs"`
	Hits int `json:"hits"`
}

// PassStats maps pass names (scene, sourcesink, verify, constprop, cone,
// callbacks, lifecycle, callgraph, icfg, summaries, taint) to their
// run/hit counters.
type PassStats map[string]PassStat

// TotalRuns sums the Runs of every pass.
func (ps PassStats) TotalRuns() int {
	n := 0
	for _, st := range ps {
		n += st.Runs
	}
	return n
}

// TotalHits sums the Hits of every pass.
func (ps PassStats) TotalHits() int {
	n := 0
	for _, st := range ps {
		n += st.Hits
	}
	return n
}

// String renders the stats as "pass runs/hits" pairs in name order.
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
		out += fmt.Sprintf("%s %d run(s)/%d hit(s)", n, ps[n].Runs, ps[n].Hits)
	}
	return out
}

// artifact is one memoized pass product. key fingerprints the
// configuration the value was built under; a run whose key matches reuses
// the value, a differing key invalidates and rebuilds. built is cleared
// when a pass was cut short (context expiry) so a partial artifact is
// never reused.
type artifact[T any] struct {
	built bool
	key   string
	val   T
}

// pipeline owns the per-app analysis state shared across attempts: the
// scene (cached program model) plus the memoized artifacts of every
// pass. AnalyzeApp creates one pipeline and re-runs it down the degrade
// ladder; only passes whose configuration a rung actually changes are
// re-executed. This is the explicit pass graph (Figure 4 of the paper)
// with its dependency keys:
//
//	scene      : program identity (built once, refreshed after dummy main)
//	sourcesink : Options.SourceSinkRules + query fingerprint
//	verify     : Options.LintEnable/LintDisable + SourceSinkRules + query
//	constprop  : program identity (runs once iff Options.ResolveReflection;
//	             the flag is fixed for a pipeline's lifetime — the degrade
//	             ladder never toggles it — so it needs no key)
//	cone       : query fingerprint + SourceSinkRules (query mode only)
//	callbacks  : no configuration (discovery is query-independent)
//	lifecycle  : Options.Lifecycle including the cone's skip set
//	callgraph  : Options.UseCHA + the entry method it grows from
//	icfg       : the call-graph artifact it stitches
//	summaries  : the summary fingerprint + the call graph it hashed
//	taint      : always runs (it is the pass being retried)
//
// Every artifact a sink query can change carries the query fingerprint in
// its key (directly, or through the lifecycle skip set), so two queries
// against the same loaded app never cross-contaminate.
//
// The taint configuration — including Taint.Workers — is deliberately
// absent from every artifact key: the worker count only changes how the
// solve is scheduled, never what any upstream pass computes, so changing
// it between runs on the same pipeline reuses every artifact
// (fingerprint-neutral).
type pipeline struct {
	app *apk.App
	sc  *scene.Scene

	stats map[string]*PassStat
	times map[string]time.Duration

	// rec is the run's metrics recorder (nil when metrics are disabled);
	// run() refreshes it from the context on every attempt.
	rec *metrics.Recorder

	verify artifact[*irlint.Result]
	refl   artifact[reflArtifact]

	cbs   artifact[*callbacks.Result]
	cn    artifact[*cone.Cone]
	entry artifact[*ir.Method]
	graph artifact[cgArtifact]
	icfg  artifact[*cfg.ICFG]
	mgr   artifact[*sourcesink.Manager]
	sums  artifact[*summarystore.Session]
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

// cgArtifact is the call-graph pass product: the graph plus the
// points-to effort spent building it (zero under CHA).
type cgArtifact struct {
	graph    *callgraph.Graph
	ptaProps int
}

// reflArtifact is the constant-propagation pass product: the classified
// reflective sites (with the soundness report) plus the materialized
// reflective call edges every downstream graph consumer folds in.
type reflArtifact struct {
	res   *constprop.Result
	edges map[ir.Stmt][]*ir.Method
}

// summaryFingerprint digests every configuration input that changes the
// taint solver's transfer functions or seeds, scoping the persistent
// summary store's namespace: two runs may only share summaries when they
// would compute identical per-method-context facts. Schedule-only knobs
// (Workers, MaxPropagations, MaxLeaks) are deliberately excluded — they
// change how much is explored, never what a completed run computes.
// The store format version is folded in so a scheme change invalidates
// wholesale, and the layout password controls are included because they
// synthesize per-app source rules.
func summaryFingerprint(app *apk.App, opts Options, qfp string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d\n", summarystore.FormatVersion)
	fmt.Fprintf(h, "rules:%s\n", opts.SourceSinkRules)
	fmt.Fprintf(h, "query:%s\n", qfp)
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

func newPipeline(app *apk.App) *pipeline {
	return &pipeline{
		app:   app,
		stats: make(map[string]*PassStat),
		times: make(map[string]time.Duration),
	}
}

func (pl *pipeline) stat(name string) *PassStat {
	st := pl.stats[name]
	if st == nil {
		st = &PassStat{}
		pl.stats[name] = st
	}
	return st
}

// ran opens one pass execution: it bumps the run counter up front — so a
// pass that panics still counts as an attempted run — and returns a
// closer that charges the elapsed build time to the pass and ends its
// trace span. The closer is safe under panic when deferred, so a pass cut
// short by a panic or a deadline is still charged for the time it ran.
func (pl *pipeline) ran(name string) func() {
	pl.stat(name).Runs++
	sp := pl.rec.StartSpan("pipeline." + name)
	bstart := time.Now()
	return func() {
		pl.times[name] += time.Since(bstart)
		sp.End()
	}
}

// hit records one memo reuse.
func (pl *pipeline) hit(name string) {
	pl.stat(name).Hits++
}

// record copies the pass counters and build times into the result.
func (pl *pipeline) record(res *Result) {
	res.Passes = make(PassStats, len(pl.stats))
	for n, st := range pl.stats {
		res.Passes[n] = *st
	}
	res.PassTimes = maps.Clone(pl.times)
}

// memo returns the cached artifact when its key matches, otherwise runs
// build and caches the result. Errors and panics leave the artifact
// unbuilt. A build is wrapped in a "pipeline.<name>" trace span and its
// wall time is charged to the pass; a hit costs (and records) nothing
// but the hit counter.
func memo[T any](pl *pipeline, name, key string, a *artifact[T], build func() (T, error)) (T, error) {
	if a.built && a.key == key {
		pl.hit(name)
		return a.val, nil
	}
	a.built = false
	v, err := func() (T, error) {
		defer pl.ran(name)()
		return build()
	}()
	if err != nil {
		var zero T
		return zero, err
	}
	a.built, a.key, a.val = true, key, v
	return v, nil
}

// run is one pipeline attempt under one configuration, reusing every
// artifact the configuration does not invalidate. Panics in any pass are
// converted into a Recovered result carrying the passes that finished
// before the panic. Every result leaves with the pipeline's cumulative
// Passes and PassTimes, the run's only timing record.
func (pl *pipeline) run(ctx context.Context, opts Options) (res *Result, err error) {
	pl.rec = metrics.From(ctx)
	res = &Result{App: pl.app, Status: Complete, Taint: &taint.Results{}}
	stage := "scene"
	defer func() {
		if r := recover(); r != nil {
			res.Status = Recovered
			res.Failure = &Failure{Stage: stage, Value: r, Stack: stackTrace()}
			err = nil
		}
		if err == nil {
			pl.record(res)
		}
	}()
	truncated := func() (*Result, error) {
		res.Status = DeadlineExceeded
		return res, nil
	}

	// Scene: the shared program model, built once per app.
	if pl.sc == nil {
		done := pl.ran("scene")
		pl.sc = scene.New(pl.app.Program)
		done()
	} else {
		pl.hit("scene")
	}

	// Source/sink manager: built early because the verify and cone passes
	// both consume it. The artifact key carries the query fingerprint —
	// a restricted manager answers sink queries differently, so two
	// queries over the same rules never share one.
	stage = "sourcesink"
	qfp := opts.Query.Fingerprint()
	mgr, err := memo(pl, "sourcesink", opts.SourceSinkRules+"\x00"+qfp, &pl.mgr,
		func() (*sourcesink.Manager, error) {
			m, err := manager(pl.sc, opts)
			if err != nil {
				return nil, err
			}
			m.AttachApp(pl.app)
			if !opts.Query.IsAll() {
				if err := m.RestrictSinks(opts.Query.Sinks); err != nil {
					return nil, fmt.Errorf("core: %w", err)
				}
			}
			return m, nil
		})
	if err != nil {
		return nil, err
	}

	// Verify: the IR lint pass, gating the solvers on a semantically
	// valid program. Error diagnostics end the run here — the solvers
	// assume invariants (resolvable branch targets, registered locals)
	// that a defective program would violate, typically by panicking deep
	// inside a flow function. Runs before dummy-main generation so
	// synthetic lifecycle code is never linted.
	if opts.Lint {
		stage = "verify"
		lres, err := memo(pl, "verify", opts.LintEnable+"|"+opts.LintDisable+"|"+opts.SourceSinkRules+"|"+qfp, &pl.verify,
			func() (*irlint.Result, error) {
				ans, err := irlint.Select(opts.LintEnable, opts.LintDisable)
				if err != nil {
					return nil, fmt.Errorf("core: %w", err)
				}
				cfg := irlint.Config{
					Analyzers:     ans,
					Sources:       mgr.Sources(),
					Sinks:         mgr.Sinks(),
					ClickHandlers: clickHandlers(pl.app),
				}
				if mgr.Restricted() {
					cfg.QueriedSinks = mgr.QueriedSinks()
				}
				return irlint.Run(pl.sc, cfg), nil
			})
		if err != nil {
			return nil, err
		}
		res.Lint = lres
		if pl.rec != nil {
			pl.rec.Gauge("lint.errors", metrics.Deterministic).Set(int64(lres.Errors()))
			pl.rec.Gauge("lint.warnings", metrics.Deterministic).Set(int64(lres.Warnings()))
		}
		if lres.HasErrors() {
			res.Status = InvalidProgram
			return res, nil
		}
	}

	// Constprop: interprocedural constant-string propagation plus
	// reflective-edge materialization. Runs before the cone so resolved
	// reflective edges participate in the backward closure like ordinary
	// call edges, and before dummy-main generation so synthetic lifecycle
	// code is never scanned. The pass is program-global and query-
	// independent; its artifact needs no configuration key.
	var reflEdges map[ir.Stmt][]*ir.Method
	if opts.ResolveReflection {
		stage = "constprop"
		ra, err := memo(pl, "constprop", "", &pl.refl, func() (reflArtifact, error) {
			r := constprop.Analyze(ctx, pl.sc)
			if r.Truncated {
				return reflArtifact{res: r}, nil
			}
			edges, err := r.Materialize(pl.app.Program)
			if err != nil {
				return reflArtifact{}, fmt.Errorf("core: %w", err)
			}
			if len(edges) > 0 {
				// Materialization added the bridges class to the program.
				pl.sc.Refresh()
			}
			return reflArtifact{res: r, edges: edges}, nil
		})
		if err != nil {
			return nil, err
		}
		if ctx.Err() != nil || ra.res.Truncated {
			pl.refl.built = false // partial facts must not be reused
			return truncated()
		}
		reflEdges = ra.edges
		res.Soundness = ra.res.Report
		res.Counters.ReflectionResolved = ra.res.Report.ResolvedSites
		res.Counters.ReflectionUnresolved = len(ra.res.Report.Unresolved)
	}

	// Cone: the backward reachability cone of the queried sinks, built
	// over app code only (before dummy-main generation — the synthetic
	// lifecycle code never contains sinks, and the cone must not depend
	// on the skip set it feeds).
	var cn *cone.Cone
	if !opts.Query.IsAll() {
		stage = "cone"
		cn, _ = memo(pl, "cone", qfp+"\x00"+opts.SourceSinkRules, &pl.cn,
			func() (*cone.Cone, error) {
				return cone.BuildWithExtra(ctx, pl.sc, mgr, reflEdges), nil
			})
		if ctx.Err() != nil {
			pl.cn.built = false // partial cone must not be reused
			return truncated()
		}
	}

	stage = "callbacks"
	cbs, _ := memo(pl, "callbacks", "", &pl.cbs, func() (*callbacks.Result, error) {
		return callbacks.DiscoverWith(ctx, pl.app, pl.sc), nil
	})
	res.Callbacks = cbs
	if ctx.Err() != nil {
		pl.cbs.built = false // partial discovery must not be reused
		return truncated()
	}

	stage = "lifecycle"
	lopts := opts.Lifecycle
	if cn != nil {
		// Components entirely outside the escape closure cannot influence
		// the queried sinks (static fields are the only cross-component
		// channel) — leave them out of dummy-main modeling. The skip set
		// is part of the lifecycle key, so changing the query regenerates
		// the model.
		var skip []string
		for _, comp := range lifecycle.ModeledComponents(pl.app, lopts) {
			if cn.ComponentSkippable(cbs.EntryPoints(pl.sc, comp)) {
				skip = append(skip, comp.Class)
			}
		}
		sort.Strings(skip)
		lopts.SkipComponents = skip
		res.Counters.ConeMethods = cn.Methods()
		res.Counters.SkippedComponents = len(skip)
	}
	entry, err := memo(pl, "lifecycle", fmt.Sprintf("%+v", lopts), &pl.entry,
		func() (*ir.Method, error) {
			// The dummy main may already exist in the program (a previous
			// AnalyzeApp call on the same app); reuse it only when it was
			// generated for the same component skip set — its marker field
			// records the set it encoded.
			if c := pl.app.Program.Class(lifecycle.DummyMainClass); c != nil {
				if m := c.Method("dummyMain", 0); m != nil {
					if lifecycle.SkipFingerprintOf(c) == lopts.SkipFingerprint() {
						return m, nil
					}
					return nil, fmt.Errorf("core: %s was generated under a different sink query; reload the app to analyze it under a new query", lifecycle.DummyMainClass)
				}
			}
			m, err := lifecycle.GenerateWith(pl.app, cbs, pl.sc, lopts)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			// Generation added the dummy-main class to the program.
			pl.sc.Refresh()
			return m, nil
		})
	if err != nil {
		return nil, err
	}
	res.EntryPoint = entry

	stage = "callgraph"
	cgKey := "pta"
	if opts.UseCHA {
		cgKey = "cha"
	}
	// The graph grows from the entry method, so its identity is part of
	// the key: a regenerated dummy main (new query) invalidates the graph.
	cgKey = fmt.Sprintf("%s@%p", cgKey, entry)
	cg, _ := memo(pl, "callgraph", cgKey, &pl.graph, func() (cgArtifact, error) {
		if opts.UseCHA {
			return cgArtifact{graph: callgraph.BuildCHAWithExtra(ctx, pl.sc, reflEdges, entry)}, nil
		}
		p := pta.BuildWithExtra(ctx, pl.sc, reflEdges, entry)
		return cgArtifact{graph: p.Graph, ptaProps: p.Propagations}, nil
	})
	res.CallGraph = cg.graph
	res.Counters.PTAPropagations = cg.ptaProps
	res.Counters.CallGraphEdges = cg.graph.NumEdges()
	if pl.rec != nil {
		pl.rec.Gauge("callgraph.reachable", metrics.Deterministic).Set(int64(len(cg.graph.Reachable())))
	}
	if ctx.Err() != nil {
		pl.graph.built = false // partial call graph must not be reused
		return truncated()
	}

	stage = "icfg"
	// The ICFG is valid exactly as long as the graph artifact it
	// stitches; the per-method CFGs inside it are shared via the scene
	// regardless.
	icfg, _ := memo(pl, "icfg", fmt.Sprintf("%s@%p", cgKey, cg.graph), &pl.icfg,
		func() (*cfg.ICFG, error) {
			return cfg.NewICFG(pl.sc, cg.graph), nil
		})

	// Summaries: the persistent-store session for this run, keyed by the
	// configuration fingerprint and the call graph it hashed methods
	// against. A degrade rung that changes the fingerprint (CHA,
	// access-path length) gets its own namespace — its summaries are not
	// interchangeable with the original configuration's.
	var sess *summarystore.Session
	if opts.SummaryStore != nil {
		stage = "summaries"
		sumFP := summaryFingerprint(pl.app, opts, qfp)
		sess, _ = memo(pl, "summaries", fmt.Sprintf("%s@%p", sumFP, cg.graph), &pl.sums,
			func() (*summarystore.Session, error) {
				return opts.SummaryStore.Session(pl.app.Package, sumFP, summarystore.HashMethods(cg.graph)), nil
			})
	}

	stage = "taint"
	tc := opts.Taint
	if opts.MaxPropagations > 0 {
		tc.MaxPropagations = opts.MaxPropagations
	}
	if cn != nil {
		tc.Cone = &taint.Cone{
			Relevant:          cn.Relevant,
			Methods:           cn.Methods(),
			SkippedComponents: res.Counters.SkippedComponents,
		}
	}
	if sess != nil {
		tc.Summaries = sess
	}
	tres := func() *taint.Results {
		defer pl.ran("taint")()
		return taint.Analyze(ctx, icfg, mgr, tc, entry)
	}()
	if sess != nil {
		// Write back the summaries a completed run recorded. A flush
		// failure (full disk, permissions) degrades the cache, never the
		// analysis: count it in the result and move on.
		if err := sess.Flush(); err != nil {
			res.Counters.SummaryFlushErrors = 1
		}
	}
	res.Taint = tres
	countersFromTaint(&res.Counters, tres.Stats)
	switch tres.Status {
	case taint.Cancelled:
		res.Status = DeadlineExceeded
	case taint.BudgetExhausted:
		res.Status = BudgetExhausted
	case taint.LeakLimitReached:
		res.Status = LeakLimitReached
	}
	return res, nil
}

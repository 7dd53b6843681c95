package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// pipeline is one analysis run's pass graph, Figure 4 of the paper run
// straight through: scene, sourcesink, verify, constprop, cone, callbacks,
// lifecycle, callgraph, icfg, summaries and taint, each at most once.
// An app is entered through the dummy main the callbacks and lifecycle
// passes generate; a plain program through its caller's entries, without
// those two passes or the app-keyed summaries.
type pipeline struct {
	prog    *ir.Program
	app     *apk.App          // nil for a plain program
	entries []*ir.Method      // a plain program's entry points
	rec     *metrics.Recorder // nil when metrics are disabled

	times map[string]time.Duration
	stage string // the pass running now, named by a Recovered result
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

// pass runs f as the pipeline pass name. It makes name the stage a panic
// is reported at, and charges f's wall time to the pass and its
// "pipeline.<name>" trace span, also when f panics or a deadline cuts it
// short, so a pass that was reached always has a PassTimes entry.
func (pl *pipeline) pass(name string, f func() error) error {
	pl.stage = name
	sp := pl.rec.StartSpan("pipeline." + name)
	start := time.Now()
	defer func() {
		pl.times[name] = time.Since(start)
		sp.End()
	}()
	return f()
}

// finish is deferred by run. It turns a panic into a Recovered result
// naming the stage it struck, and stamps the result with the run's
// PassTimes — its only per-pass record — and body counts.
func (pl *pipeline) finish(res *Result) {
	if r := recover(); r != nil {
		res.Status = Recovered
		res.Failure = &Failure{Stage: pl.stage, Value: r, Stack: stackTrace()}
	}
	res.PassTimes = pl.times
	if pl.prog != nil {
		res.Counters.Bodies, res.Counters.BodiesParsed = pl.prog.BodyCounts()
	}
}

// run executes the passes in order and returns the run's one result. A
// Status other than Complete set by a pass ends the run there; a
// configuration error ends it with no result.
func (pl *pipeline) run(ctx context.Context, opts Options) (res *Result, err error) {
	res = &Result{App: pl.app, Status: Complete, Taint: &taint.Results{}}
	defer pl.finish(res)
	// The passes' products, each read by the passes after it.
	var (
		sc        *scene.Scene
		mgr       *sourcesink.Manager
		reflEdges map[ir.Stmt][]*ir.Method
		cn        *cone.Cone
		graph     *callgraph.Graph
		icfg      *cfg.ICFG
	)
	truncated := func() (*Result, error) {
		res.Status = DeadlineExceeded
		return res, nil
	}

	pl.pass("scene", func() error {
		sc = scene.New(pl.prog)
		return nil
	})

	// Source/sink manager: built early because the verify and cone passes
	// both consume it.
	if err := pl.pass("sourcesink", func() error {
		m, err := manager(sc, opts)
		if err != nil {
			return err
		}
		if pl.app != nil {
			m.AttachApp(pl.app)
		}
		if !opts.Query.IsAll() {
			if err := m.RestrictSinks(opts.Query.Sinks); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
		mgr = m
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
			if err := pl.prog.ParseAll(); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			ans, err := irlint.Select(opts.LintEnable, opts.LintDisable)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			cfg := irlint.Config{
				Analyzers: ans,
				Sources:   mgr.Sources(),
				Sinks:     mgr.Sinks(),
			}
			if pl.app != nil {
				cfg.ClickHandlers = pl.app.ClickHandlers()
			}
			if mgr.Restricted() {
				cfg.QueriedSinks = mgr.QueriedSinks()
			}
			res.Lint = irlint.Run(sc, cfg)
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
			r = constprop.Analyze(ctx, sc)
			if r.Truncated {
				return nil
			}
			edges, err := r.Materialize(pl.prog)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			if len(edges) > 0 {
				// Materialization added the bridges class to the program.
				sc.Refresh()
			}
			reflEdges = edges
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
	// over program code only (before dummy-main generation — the synthetic
	// lifecycle code never contains sinks, and the cone must not depend
	// on the skip set it feeds).
	if !opts.Query.IsAll() {
		pl.pass("cone", func() error {
			cn = cone.BuildWithExtra(ctx, sc, mgr, reflEdges)
			return nil
		})
		if ctx.Err() != nil {
			return truncated()
		}
		res.Counters.ConeMethods = cn.Methods()
	}

	// Entry points: a plain program's are its caller's; an app's is the
	// dummy main generated over its discovered callbacks.
	entries := pl.entries
	if pl.app != nil {
		pl.pass("callbacks", func() error {
			res.Callbacks = callbacks.DiscoverWith(ctx, pl.app, sc)
			return nil
		})
		if ctx.Err() != nil {
			return truncated()
		}

		pl.stage = "lifecycle"
		lopts := opts.Lifecycle
		if cn != nil {
			// Components entirely outside the escape closure cannot
			// influence the queried sinks (static fields are the only
			// cross-component channel) — leave them out of dummy-main
			// modeling.
			var skip []string
			for _, comp := range lifecycle.ModeledComponents(pl.app, lopts) {
				if cn.ComponentSkippable(res.Callbacks.EntryPoints(sc, comp)) {
					skip = append(skip, comp.Class)
				}
			}
			sort.Strings(skip)
			lopts.SkipComponents = skip
			res.Counters.SkippedComponents = len(skip)
		}
		if err := pl.pass("lifecycle", func() error {
			// The dummy main may already exist in the program (a previous
			// AnalyzeApp call on the same app); reuse it only when it was
			// generated for the same component skip set — its marker
			// field records the set it encoded.
			if c := pl.prog.Class(lifecycle.DummyMainClass); c != nil {
				if m := c.Method("dummyMain", 0); m != nil {
					if lifecycle.SkipFingerprintOf(c) != lopts.SkipFingerprint() {
						return fmt.Errorf("core: %s was generated under a different sink query; reload the app to analyze it under a new query", lifecycle.DummyMainClass)
					}
					res.EntryPoint = m
					return nil
				}
			}
			m, err := lifecycle.GenerateWith(pl.app, res.Callbacks, sc, lopts)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			// Generation added the dummy-main class to the program.
			sc.Refresh()
			res.EntryPoint = m
			return nil
		}); err != nil {
			return nil, err
		}
		entries = []*ir.Method{res.EntryPoint}
	}

	pl.pass("callgraph", func() error {
		if opts.UseCHA {
			graph = callgraph.BuildCHAWithExtra(ctx, sc, reflEdges, entries...)
		} else {
			p := pta.BuildWithExtra(ctx, sc, reflEdges, entries...)
			graph, res.Counters.PTAPropagations = p.Graph, p.Propagations
		}
		return nil
	})
	res.CallGraph = graph
	res.Counters.CallGraphEdges = graph.NumEdges()
	if pl.rec != nil {
		pl.rec.Gauge("callgraph.reachable", metrics.Deterministic).Set(int64(len(graph.Reachable())))
	}
	if ctx.Err() != nil {
		return truncated()
	}

	// The per-method CFGs inside the ICFG are shared via the scene.
	pl.pass("icfg", func() error {
		icfg = cfg.NewICFG(sc, graph)
		return nil
	})

	// Summaries: the run's persistent-store session, scoped by the
	// configuration fingerprint and the call graph it hashed methods
	// against.
	var sess *summarystore.Session
	if opts.SummaryStore != nil {
		pl.pass("summaries", func() error {
			sumFP := summaryFingerprint(pl.app, opts)
			sess = opts.SummaryStore.Session(pl.app.Package, sumFP, summarystore.HashMethods(graph))
			return nil
		})
	}

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
	pl.pass("taint", func() error {
		res.Taint = taint.Analyze(ctx, icfg, mgr, tc, entries...)
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
	return res, nil
}

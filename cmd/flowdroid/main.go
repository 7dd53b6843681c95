// Command flowdroid analyzes an Android app package (a directory or zip
// archive containing AndroidManifest.xml, res/layout/*.xml and .ir code
// files) and reports data flows from sensitive sources to sinks.
//
// Usage:
//
//	flowdroid [flags] <app-dir-or-zip>
//	flowdroid -insecurebank
//
// The default configuration matches the paper: access-path length 5, full
// lifecycle model, on-demand alias analysis with activation statements,
// taint wrapper enabled. Runs can be bounded with -timeout and
// -max-propagations; -degrade retries a budget-exhausted run with
// shorter access paths (length 3, then 1).
//
// Exit codes distinguish the outcomes corpus scripts branch on:
//
//	0  analysis complete, no leaks
//	1  analysis complete, leaks found
//	2  analysis error or incomplete result (timeout, exhausted budget,
//	   leak cap reached, recovered panic, failed IR verification)
//	64 usage error (bad flags or arguments)
//
// A LeakLimitReached status (the -max-leaks style cap configured through
// the library's Taint.MaxLeaks) exits 2 like any other truncated run: the
// reported leaks are real but the set is not exhaustive.
//
// Reflection is resolved by default: an interprocedural constant-string
// propagation pass turns Class.forName/getMethod/newInstance/invoke
// chains over constant names into ordinary call edges, so taint flows
// through them like any other call. Sites the pass cannot resolve are
// listed in the run's soundness report ("soundness" in -json, a summary
// line in text mode) instead of being silently dropped. -no-reflection
// disables the pass entirely and restores the reflection-blind analysis.
//
// -sinks runs a demand-driven query: only the named sink rules (by
// label, Class.method or Class.method/N) are analyzed, and the pipeline
// builds just the backward reachability cone behind them — components
// outside the cone are never lifecycle-modeled. The report is exactly
// the whole-program report filtered to the queried sinks.
//
// An interrupt (SIGINT/SIGTERM) cancels the analysis context: the run
// stops at the next stage boundary and the partial result is reported as
// DeadlineExceeded (exit 2). A second signal kills the process.
//
// -summary-dir DIR enables the persistent method-summary store: completed
// runs record per-method summaries under DIR, and later runs on updated
// versions of the app replay the summaries of unchanged methods instead
// of re-solving them. The leak report is identical with or without the
// store; -stats and -json expose the hit/miss/reuse counters. A failed
// write-back never fails the run: it shows as summaryFlushErrors and a
// warning on stderr.
//
// -json prints the daemon's result envelope (service.Report, whose
// counters are core.Counters) with path witnesses in the leaks, so the
// one-shot and resident surfaces share one schema.
//
// Observability (all opt-in, zero cost when absent):
//
//	-trace FILE    write a JSONL span trace of the pipeline (validated
//	               by scripts/checktrace)
//	-metrics       print the metrics snapshot as JSON; with -json it is
//	               embedded in the report under "metrics"
//	-pprof-addr A  serve net/http/pprof and expvar on A for the run's
//	               duration; the live snapshot is published as the
//	               expvar "flowdroid.metrics"
//
// IR verification (-lint, with -lint.enable/-lint.disable/-lint.json)
// runs the internal/irlint analyzers between the front-end and the
// solvers: Error diagnostics abort the run with status InvalidProgram
// (exit 2); warnings are reported and the analysis proceeds. The
// standalone cmd/irlint lints IR packages without running any analysis.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flowdroid/internal/core"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/lifecycle"
	"flowdroid/internal/metrics"
	"flowdroid/internal/service"
	"flowdroid/internal/summarystore"
)

const (
	exitClean    = 0
	exitLeaks    = 1
	exitAnalysis = 2
	exitUsage    = 64
)

// flags is the program's flag set. A package-level ContinueOnError set
// (instead of the flag package's default, which exits 2 on a bad flag)
// lets main route parse failures to the usage exit code.
var flags = flag.NewFlagSet("flowdroid", flag.ContinueOnError)

func main() {
	os.Exit(run())
}

// run is main with an exit code: every path returns instead of calling
// os.Exit, so the deferred cleanup (debug-listener close, signal-handler
// release) always executes.
func run() int {
	var (
		apLength    = flags.Int("ap-length", 5, "maximal access-path length")
		noAlias     = flags.Bool("no-alias", false, "disable the on-demand alias analysis")
		noAct       = flags.Bool("no-activation", false, "disable activation statements (Andromeda-style aliasing)")
		noReflect   = flags.Bool("no-reflection", false, "disable reflection resolution (constant-string propagation, reflective call edges and the soundness report)")
		noLifecycle = flags.Bool("no-lifecycle", false, "model only component creation, not the full lifecycle")
		flat        = flags.Bool("flat-lifecycle", false, "single-pass lifecycle in canonical order")
		useCHA      = flags.Bool("cha", false, "use the CHA call graph instead of points-to")
		rulesFile   = flags.String("rules", "", "replace the built-in source/sink rules with this file")
		sinks       = flags.String("sinks", "", "comma-separated sink selectors (label, Class.method, Class.method/N) for a demand-driven query; empty = all sinks")
		showPaths   = flags.Bool("paths", false, "print the reconstructed statement path of each leak")
		jsonOut     = flags.Bool("json", false, "emit the leak report as JSON")
		showStats   = flags.Bool("stats", false, "print solver statistics and timings")
		bank        = flags.Bool("insecurebank", false, "analyze the built-in InsecureBank app (RQ2)")
		timeout     = flags.Duration("timeout", 0, "abort the analysis after this long and report the partial result (0 = no limit)")
		maxProps    = flags.Int("max-propagations", 0, "taint-propagation budget; 0 = unlimited")
		degrade     = flags.Bool("degrade", false, "on budget exhaustion retry with shorter access paths (length 3, then 1)")
		summaryDir  = flags.String("summary-dir", "", "persistent method-summary store directory for warm re-analysis (empty = disabled)")
		lint        = flags.Bool("lint", false, "run the IR verifier before the solvers; Error diagnostics abort with status InvalidProgram")
		lintEnable  = flags.String("lint.enable", "", "comma-separated analyzer names to run (default: all)")
		lintDisable = flags.String("lint.disable", "", "comma-separated analyzer names to skip")
		lintJSON    = flags.Bool("lint.json", false, "emit lint diagnostics as JSON (implies -lint)")
		traceFile   = flags.String("trace", "", "write a JSONL span trace of the pipeline to this file")
		showMetrics = flags.Bool("metrics", false, "print the metrics snapshot as JSON (embedded in the report under -json)")
		pprofAddr   = flags.String("pprof-addr", "", "serve net/http/pprof and expvar on this address for the run's duration (e.g. localhost:6060)")
	)
	flags.SetOutput(os.Stderr)
	if err := flags.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			return exitClean
		}
		return exitUsage
	}

	opts := core.DefaultOptions()
	opts.Taint.APLength = *apLength
	opts.Taint.EnableAliasing = !*noAlias
	opts.Taint.EnableActivation = !*noAct
	opts.ResolveReflection = !*noReflect
	opts.UseCHA = *useCHA
	opts.MaxPropagations = *maxProps
	opts.Degrade = *degrade
	opts.SummaryStore = summarystore.Open(*summaryDir)
	opts.Lint = *lint || *lintJSON || *lintEnable != "" || *lintDisable != ""
	opts.LintEnable = *lintEnable
	opts.LintDisable = *lintDisable
	if *noLifecycle {
		opts.Lifecycle.Mode = lifecycle.CreateOnly
	}
	if *flat {
		opts.Lifecycle.Mode = lifecycle.FlatLifecycle
	}
	if *rulesFile != "" {
		data, err := os.ReadFile(*rulesFile)
		if err != nil {
			return usageError(err.Error())
		}
		opts.SourceSinkRules = string(data)
	}
	if *sinks != "" {
		for _, sel := range strings.Split(*sinks, ",") {
			if sel = strings.TrimSpace(sel); sel != "" {
				opts.Query.Sinks = append(opts.Query.Sinks, sel)
			}
		}
	}

	// An interrupt (SIGINT/SIGTERM) cancels the analysis context: the
	// pipeline stops at the next stage boundary and reports the partial
	// result as DeadlineExceeded (exit 2) instead of the process dying
	// mid-write. A second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// A recorder exists only when some observability surface asked for
	// one; otherwise the pipeline's instrumentation stays on its nil
	// fast path. The trace sink flushes every line eagerly, so the
	// os.Exit paths below cannot lose events.
	var rec *metrics.Recorder
	if *traceFile != "" || *showMetrics || *pprofAddr != "" {
		rec = metrics.New()
		ctx = metrics.Into(ctx, rec)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowdroid:", err)
			return exitUsage
		}
		rec.SetTrace(metrics.NewTrace(f))
	}
	if *pprofAddr != "" {
		// The shared debug endpoint (pprof + expvar + live metrics
		// snapshot): serve errors are logged, and the listener is closed
		// on every exit path instead of leaking for the process lifetime.
		dbg, err := service.ServeDebug(*pprofAddr, rec, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "flowdroid: "+format+"\n", args...)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowdroid:", err)
			return exitUsage
		}
		fmt.Fprintf(os.Stderr, "flowdroid: pprof/expvar listening on http://%s/debug/pprof/\n", dbg.Addr())
		defer dbg.Close()
	}

	var res *core.Result
	var err error
	switch {
	case *bank:
		res, err = core.AnalyzeFiles(ctx, insecurebank.Files, opts)
	case flags.NArg() == 1:
		path := flags.Arg(0)
		if strings.HasSuffix(path, ".zip") || strings.HasSuffix(path, ".apk") {
			res, err = core.AnalyzeZip(ctx, path, opts)
		} else {
			res, err = core.AnalyzeDir(ctx, path, opts)
		}
	default:
		return usageError("usage: flowdroid [flags] <app-dir-or-zip>  (or -insecurebank)")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowdroid:", err)
		return exitAnalysis
	}

	if res.Counters.SummaryFlushErrors > 0 {
		fmt.Fprintf(os.Stderr, "flowdroid: writing summaries to %s failed; the next run cannot reuse them\n", *summaryDir)
	}

	if *jsonOut {
		// The daemon's envelope, with the path-witness leak report in
		// place of the canonical one, plus the snapshot under -metrics.
		rep := struct {
			service.Report
			Metrics *metrics.Snapshot `json:"metrics,omitempty"`
		}{Report: service.ResultReport(res)}
		rep.Leaks = res.Taint.Report()
		if *showMetrics {
			snap := rec.Snapshot()
			rep.Metrics = &snap
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "flowdroid:", err)
			return exitAnalysis
		}
		return exitCode(res)
	}

	if res.Lint != nil && len(res.Lint.Diagnostics) > 0 {
		if *lintJSON {
			out, err := json.MarshalIndent(res.Lint.Diagnostics, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "flowdroid:", err)
				return exitAnalysis
			}
			fmt.Printf("%s\n", out)
		} else {
			for _, d := range res.Lint.Diagnostics {
				fmt.Println(d)
			}
		}
		fmt.Printf("lint: %d error(s), %d warning(s)\n", res.Lint.Errors(), res.Lint.Warnings())
	}
	if res.Status == core.InvalidProgram {
		fmt.Println("analysis aborted: program failed IR verification")
		return exitAnalysis
	}
	if res.App != nil && res.CallGraph != nil && res.Callbacks != nil {
		fmt.Printf("analyzed %s: %d components, %d callbacks, %d call edges\n",
			res.App.Package, len(res.App.Components()), res.Callbacks.Total(), res.CallGraph.NumEdges())
	}
	if !opts.Query.IsAll() {
		fmt.Printf("sink query [%s]: reachability cone %d method(s), %d component(s) skipped\n",
			strings.Join(opts.Query.Sinks, ", "), res.Counters.ConeMethods, res.Counters.SkippedComponents)
	}
	if !res.Soundness.Empty() {
		fmt.Printf("reflection: %d site(s) resolved into call edges, %d unresolved\n",
			res.Soundness.ResolvedSites, len(res.Soundness.Unresolved))
		for _, u := range res.Soundness.Unresolved {
			fmt.Printf("    unresolved %s in %s (%s)\n", u.Call, u.Method, u.Reason)
		}
	}
	fmt.Print(res.Taint.Render())
	if res.Status != core.Complete {
		c := res.Counters
		fmt.Printf("analysis incomplete: %s (propagations %d, path edges %d, summaries %d, peak abstractions %d)\n",
			res.Status, c.Propagations, c.PathEdges, c.Summaries, c.PeakAbstractions)
		if res.Failure != nil {
			fmt.Fprintf(os.Stderr, "flowdroid: %v\n%s", res.Failure, res.Failure.Stack)
		}
	}
	if len(res.Degraded) > 0 {
		fmt.Printf("degraded configuration: %s\n", strings.Join(res.Degraded, ", "))
	}
	if *showPaths {
		for i, l := range res.Leaks() {
			fmt.Printf("\npath of leak %d:\n", i+1)
			for _, s := range l.Path() {
				fmt.Printf("    %s  (in %s)\n", s, s.Method())
			}
		}
	}
	if *showStats {
		st := res.Taint.Stats
		var setup time.Duration
		for pass, d := range res.PassTimes {
			if pass != "taint" {
				setup += d
			}
		}
		fmt.Printf("\nsetup %v, taint analysis %v\n", setup, res.PassTimes["taint"])
		fmt.Printf("forward edges %d, backward edges %d, alias queries %d, summaries %d, peak abstractions %d\n",
			st.ForwardEdges, st.BackwardEdges, st.AliasQueries, st.Summaries, st.PeakAbstractions)
		if c := res.Counters; c.Bodies > 0 {
			fmt.Printf("method bodies parsed: %d of %d (%.0f%%)\n", c.BodiesParsed, c.Bodies, 100*float64(c.BodiesParsed)/float64(c.Bodies))
		}
		if c := res.Counters; c.ReflectionResolved > 0 || c.ReflectionUnresolved > 0 {
			fmt.Printf("reflection: %d site(s) resolved, %d unresolved\n", c.ReflectionResolved, c.ReflectionUnresolved)
		}
		if ss := st.Store; ss != nil {
			fmt.Printf("summary store: %d hit(s), %d miss(es), %d invalidated, %d corrupt; %d method(s) reused, %d explored (%.1f%% reuse), %d persisted\n",
				ss.Hits, ss.Misses, ss.Invalidated, ss.Corrupt,
				ss.MethodsReused, ss.MethodsExplored, 100*ss.ReuseRate(), ss.Persisted)
		}
		if n := res.Counters.SummaryFlushErrors; n > 0 {
			fmt.Printf("summary store: %d write-back error(s), summaries not persisted\n", n)
		}
		if len(res.Passes) > 0 {
			fmt.Printf("passes: %s\n", res.Passes)
		}
	}
	if *showMetrics {
		printMetrics(rec)
	}
	return exitCode(res)
}

// printMetrics dumps the recorder snapshot as indented JSON on stdout.
func printMetrics(rec *metrics.Recorder) {
	out, err := json.MarshalIndent(rec.Snapshot(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowdroid:", err)
		return
	}
	fmt.Printf("\nmetrics:\n%s\n", out)
}

// exitCode maps a result onto the documented exit codes: an incomplete
// run is an analysis error even when partial leaks were found, so that
// scripts never mistake a truncated report for a clean verdict.
func exitCode(res *core.Result) int {
	if res.Status != core.Complete {
		return exitAnalysis
	}
	if len(res.Leaks()) > 0 {
		return exitLeaks
	}
	return exitClean
}

// usageError prints the message plus the flag defaults and returns the
// usage exit code for the caller to return.
func usageError(msg string) int {
	fmt.Fprintln(os.Stderr, msg)
	flags.PrintDefaults()
	return exitUsage
}

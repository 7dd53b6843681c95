// Command corpus regenerates the RQ3 experiments: synthetic Google-Play-
// like and malware-like app populations are generated deterministically,
// analyzed with the default configuration, and summarized the way Section
// 6.3 reports them (apps leaking, leaks per app, sink distribution,
// per-app analysis times).
//
// Per-app failures never abort the batch: a panicking, timed-out or
// budget-exhausted app is counted in the abnormal-outcomes section of the
// summary and the remaining apps are analyzed normally.
//
// Usage:
//
//	corpus -profile play -n 500 -seed 1
//	corpus -profile malware -n 1000 -seed 2
//	corpus -n 50 -timeout 2s -max-propagations 500000 -degrade
//	corpus -profile malware -n 100 -sinks sms
//
// With -sinks the batch runs in demand-driven query mode: each app is
// analyzed only for the named sink selectors, the summary reports the
// aggregated reachability-cone size and skipped components, and the
// injected-ground-truth recall check is suspended (the ground truth
// spans all sinks, the query does not).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/metrics"
	"flowdroid/internal/summarystore"
)

const (
	exitOK       = 0
	exitRecall   = 1
	exitAnalysis = 2
	exitUsage    = 64
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main with an exit code: every path returns instead of calling
// os.Exit, so the deferred cleanup (signal-handler release, trace file)
// always executes. A ContinueOnError flag set (instead of the flag
// package's default, which exits 2 on a bad flag) routes parse failures
// to the usage exit code.
func run(args []string) int {
	flags := flag.NewFlagSet("corpus", flag.ContinueOnError)
	var (
		profile     = flags.String("profile", "malware", "population profile: play, malware, or stress")
		n           = flags.Int("n", 100, "number of apps to generate and analyze")
		seed        = flags.Int64("seed", 1, "generation seed")
		export      = flags.String("export", "", "also write the generated app packages under this directory")
		timeout     = flags.Duration("timeout", 0, "per-app analysis deadline (0 = none)")
		maxProps    = flags.Int("max-propagations", 0, "per-app taint-propagation budget (0 = unlimited)")
		degrade     = flags.Bool("degrade", false, "retry budget-exhausted apps with cheaper configurations")
		workers     = flags.Int("workers", runtime.GOMAXPROCS(0), "per-app taint solver worker-pool size (<=1 = sequential)")
		forcePanic  = flags.String("force-panic", "", "inject a panic while analyzing the named app (tests batch isolation)")
		lint        = flags.Bool("lint", false, "run the IR verifier before each app's solvers")
		sinks       = flags.String("sinks", "", "comma-separated sink selectors for a demand-driven query (empty = all sinks)")
		summaryDir  = flags.String("summary-dir", "", "persistent method-summary store directory; a repeated run over the same corpus re-analyzes warm (empty = disabled)")
		traceFile   = flags.String("trace", "", "write a JSONL span trace of every app's pipeline to this file")
		showMetrics = flags.Bool("metrics", false, "print the corpus-aggregated metrics snapshot as JSON after the summary")
		noReflect   = flags.Bool("no-reflection", false, "disable reflection resolution; injected reflective leaks become invisible, so the exact-recall check is suspended")
	)
	flags.SetOutput(os.Stderr)
	if err := flags.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}

	var p appgen.Profile
	switch *profile {
	case "play":
		p = appgen.Play
	case "malware":
		p = appgen.Malware
	case "stress":
		p = appgen.Stress
	case "reflection":
		p = appgen.Reflection
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q (want play, malware, stress, or reflection)\n", *profile)
		return exitUsage
	}
	if *export != "" {
		if _, err := appgen.ExportCorpus(p, *n, *seed, *export); err != nil {
			fmt.Fprintln(os.Stderr, "corpus:", err)
			return exitAnalysis
		}
		fmt.Printf("wrote %d app packages under %s\n", *n, *export)
	}
	opts := core.DefaultOptions()
	opts.MaxPropagations = *maxProps
	opts.Degrade = *degrade
	opts.Taint.Workers = *workers
	opts.Lint = *lint
	opts.SummaryStore = summarystore.Open(*summaryDir)
	opts.ResolveReflection = !*noReflect
	if *sinks != "" {
		for _, sel := range strings.Split(*sinks, ",") {
			if sel = strings.TrimSpace(sel); sel != "" {
				opts.Query.Sinks = append(opts.Query.Sinks, sel)
			}
		}
	}
	ro := appgen.RunOptions{Timeout: *timeout, FaultInject: *forcePanic}
	// An interrupt (SIGINT/SIGTERM) cancels the batch context: the app
	// being analyzed stops at its next stage boundary, the apps never
	// attempted are counted in the summary's incomplete line, and the
	// partial summary still prints instead of the process dying
	// mid-write. A second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// One recorder is shared by every app in the batch: counters
	// accumulate corpus-wide, which is exactly the rollup the summary
	// wants. With neither flag set the pipelines run uninstrumented.
	var rec *metrics.Recorder
	if *traceFile != "" || *showMetrics {
		rec = metrics.New()
		ctx = metrics.Into(ctx, rec)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "corpus:", err)
			return exitUsage
		}
		defer f.Close()
		rec.SetTrace(metrics.NewTrace(f))
	}
	stats, err := appgen.RunCorpusWith(ctx, p, *n, *seed, opts, ro)
	if err != nil {
		fmt.Fprintln(os.Stderr, "corpus:", err)
		return exitAnalysis
	}
	fmt.Print(stats.Render())
	if n := stats.Counters.SummaryFlushErrors; n > 0 {
		fmt.Fprintf(os.Stderr, "corpus: writing summaries to %s failed for %d app(s); the next run cannot reuse them\n", *summaryDir, n)
	}
	if *showMetrics {
		out, err := json.MarshalIndent(rec.Snapshot(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "corpus:", err)
			return exitAnalysis
		}
		fmt.Printf("metrics:\n%s\n", out)
	}
	if ctx.Err() != nil {
		// An interrupted batch reported partial results above; exit 2
		// (incomplete) so scripts never mistake it for a full run whose
		// ground truth failed to match.
		fmt.Fprintf(os.Stderr, "corpus: interrupted, %d app(s) never attempted\n", stats.Incomplete)
		return exitAnalysis
	}
	// Under a sink query the injected ground truth spans all sinks while
	// the report is restricted to the queried ones; under -no-reflection
	// the injected reflective leaks are intentionally invisible. The
	// exact-recall check only applies to full whole-program runs.
	if opts.Query.IsAll() && opts.ResolveReflection && stats.TotalFound != stats.TotalInjected {
		fmt.Printf("WARNING: found %d leaks but injected %d\n",
			stats.TotalFound, stats.TotalInjected)
		return exitRecall
	}
	return exitOK
}

// Command flowdroidd is the resident analysis daemon: it keeps the
// FlowDroid pipeline warm in one long-running process and serves an
// HTTP/JSON submit/status/result API, so clients stop paying a full
// cold start per app the way subprocess-per-APK deployments do.
//
// Usage:
//
//	flowdroidd [flags]
//
// API (see internal/service):
//
//	POST /v1/jobs             submit {"files": {...}, "deadline": ...}
//	GET  /v1/jobs/{id}        poll the job state
//	GET  /v1/jobs/{id}/result fetch the finished report (canonical leaks)
//	GET  /healthz             liveness; 503 while draining
//	GET  /metrics             metrics snapshot as JSON
//
// Robustness properties, all enforced in internal/service:
//
//   - The job queue is bounded (-queue); a submission that does not fit
//     is rejected with 429 + Retry-After, never buffered.
//   - Every job is deadline- and budget-bounded (-default-timeout,
//     -max-timeout, -max-propagations) through the core resilience
//     layer, so the worst case is a partial, explained result.
//   - Up to -analyses jobs run at once, each single-threaded on its own
//     executor goroutine: the app is the unit of parallelism.
//   - Repeated Recovered/InvalidProgram outcomes for one app
//     fingerprint trip a circuit breaker (-breaker-trip,
//     -breaker-cooldown): known-poison inputs are rejected up front.
//   - SIGINT/SIGTERM starts a graceful drain: admission stops, queued
//     and in-flight jobs finish (or are deadline-cancelled after
//     -drain-timeout), sinks are flushed, then the process exits.
//
// Exit codes follow the repository discipline:
//
//	0  clean drain (every job finished)
//	2  forced drain (drain timeout cancelled in-flight jobs) or serve error
//	64 usage error
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flowdroid/internal/metrics"
	"flowdroid/internal/service"
)

const (
	exitClean  = 0
	exitForced = 2
	exitUsage  = 64
)

var flags = flag.NewFlagSet("flowdroidd", flag.ContinueOnError)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so deferred cleanup (trace flush,
// listener close) still executes on every path.
func run() int {
	var (
		addr         = flags.String("addr", "127.0.0.1:8040", "HTTP listen address")
		queueSize    = flags.Int("queue", 64, "job queue bound; submissions beyond it are rejected with 429")
		analyses     = flags.Int("analyses", 2, "concurrent analysis executors")
		defTimeout   = flags.Duration("default-timeout", 2*time.Minute, "per-job deadline for requests that set none")
		maxTimeout   = flags.Duration("max-timeout", 10*time.Minute, "cap on requested per-job deadlines")
		maxProps     = flags.Int("max-propagations", 0, "default per-job taint-propagation budget (0 = unlimited)")
		breakerTrip  = flags.Int("breaker-trip", 3, "consecutive bad outcomes per app fingerprint that trip its circuit breaker (-1 disables)")
		breakerCool  = flags.Duration("breaker-cooldown", 30*time.Second, "how long a tripped circuit stays open before one probe is admitted")
		drainTimeout = flags.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs before cancelling them")
		retainJobs   = flags.Int("retain-jobs", 1024, "finished jobs kept queryable before eviction")
		summaryDir   = flags.String("summary-dir", "", "persistent method-summary store directory shared by all jobs; resubmitted app updates re-analyze warm (empty = disabled)")
		noReflect    = flags.Bool("no-reflection", false, "disable reflection resolution for all jobs (constant-string propagation, reflective call edges and soundness reports)")
		traceFile    = flags.String("trace", "", "write a JSONL span trace of every job's pipeline to this file")
		pprofOn      = flags.Bool("pprof", false, "also mount /debug/pprof and /debug/vars on the API mux")
	)
	flags.SetOutput(os.Stderr)
	if err := flags.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			return exitClean
		}
		return exitUsage
	}
	if flags.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: flowdroidd [flags]")
		flags.PrintDefaults()
		return exitUsage
	}

	// The daemon always records metrics: /metrics is part of the API.
	rec := metrics.New()
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowdroidd:", err)
			return exitUsage
		}
		tr := metrics.NewTrace(f)
		rec.SetTrace(tr)
		defer tr.Close()
	}

	svc := service.New(service.Config{
		QueueSize:              *queueSize,
		Analyses:               *analyses,
		DefaultDeadline:        *defTimeout,
		MaxDeadline:            *maxTimeout,
		DefaultMaxPropagations: *maxProps,
		BreakerTrip:            *breakerTrip,
		BreakerCooldown:        *breakerCool,
		RetainJobs:             *retainJobs,
		SummaryDir:             *summaryDir,
		DisableReflection:      *noReflect,
		Recorder:               rec,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowdroidd:", err)
		return exitUsage
	}
	httpSrv := &http.Server{Handler: svc.Handler(*pprofOn)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	// The banner reports the effective configuration: New replaces a
	// non-positive -queue or -analyses with its default.
	eff := svc.Config()
	fmt.Fprintf(os.Stderr, "flowdroidd: listening on http://%s (queue %d, analyses %d)\n",
		ln.Addr(), eff.QueueSize, eff.Analyses)

	// SIGINT/SIGTERM starts the drain; a second signal kills the process
	// the default way (NotifyContext unregisters after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-serveErr:
		// The listener died out from under us; drain what was admitted.
		fmt.Fprintf(os.Stderr, "flowdroidd: serve error: %v\n", err)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		svc.Shutdown(dctx)
		return exitForced
	case <-ctx.Done():
		stop()
	}

	fmt.Fprintf(os.Stderr, "flowdroidd: signal received, draining (timeout %v)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	forced := svc.Shutdown(dctx)

	// The API stays up through the drain so clients can poll results;
	// now tear it down and report.
	hctx, hcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer hcancel()
	if err := httpSrv.Shutdown(hctx); err != nil {
		httpSrv.Close()
	}
	<-serveErr // the serve loop has returned ErrServerClosed

	st := svc.Stats()
	snap := rec.Snapshot()
	fmt.Fprintf(os.Stderr, "flowdroidd: drained: %d completed, %d failed, %d rejected (queue full %d, circuit open %d, draining %d)\n",
		snap.Schedule["service.completed"], snap.Schedule["service.failed"],
		snap.Schedule["service.rejected.queue_full"]+snap.Schedule["service.rejected.circuit_open"]+snap.Schedule["service.rejected.draining"],
		snap.Schedule["service.rejected.queue_full"], snap.Schedule["service.rejected.circuit_open"], snap.Schedule["service.rejected.draining"])
	if forced != nil {
		fmt.Fprintf(os.Stderr, "flowdroidd: drain timed out, in-flight jobs were cancelled (%d retained jobs)\n", st.Retained)
		return exitForced
	}
	return exitClean
}

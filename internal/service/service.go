// Package service turns the batch analysis pipeline into a resident
// daemon: a bounded job queue with explicit admission control, a pool of
// analysis executors sharing a global taint-worker budget, per-request
// deadlines and propagation budgets mapped onto the core resilience
// knobs, a per-app-fingerprint circuit breaker, and a graceful drain.
//
// The design rules mirror the rest of the repository:
//
//  1. Never buffer unboundedly. The queue is a fixed-capacity channel
//     and a submission that does not fit is rejected immediately with
//     ErrQueueFull — a retriable condition the HTTP layer maps to 429.
//
//  2. Every admitted job is bounded. The request's deadline (clamped to
//     the server's maximum) and propagation budget ride the existing
//     core.Options resilience machinery, so a runaway analysis ends in
//     a partial, explained Result instead of wedging an executor.
//
//  3. Failure is data. A panicking analysis is recovered (by core's
//     stage recovery, with a service-level backstop), counted, and fed
//     to the circuit breaker; repeated Recovered/InvalidProgram
//     outcomes for the same app fingerprint trip the breaker so the
//     daemon stops re-burning workers on a poison input.
//
//  4. Drain is a first-class operation: stop admitting, let queued and
//     in-flight jobs finish (or deadline-cancel them when the drain
//     context expires), then return with every executor accounted for.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"flowdroid/internal/core"
	"flowdroid/internal/metrics"
	"flowdroid/internal/summarystore"
)

// Config tunes a Server. The zero value is usable: every field has a
// production-shaped default applied by New.
type Config struct {
	// QueueSize bounds the job queue (default 64). A submission that
	// finds the queue full is rejected with ErrQueueFull, never buffered.
	QueueSize int
	// Analyses is the number of concurrent analysis executors
	// (default 2). Each executor runs one whole-app analysis at a time.
	Analyses int
	// WorkerBudget is the global taint-solver worker budget shared
	// across concurrent analyses (default GOMAXPROCS). Each job is
	// granted the fair share max(1, WorkerBudget/Analyses) via
	// taint.Config.Workers; grants are leased and released around the
	// run so the lease gauge never exceeds the budget.
	WorkerBudget int
	// DefaultDeadline bounds a job whose request carries no deadline
	// (default 2m). MaxDeadline caps any requested deadline (default
	// 10m); requests asking for more are clamped, not rejected.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// DefaultMaxPropagations is the propagation budget applied to
	// requests that do not set one (0 = unlimited).
	DefaultMaxPropagations int
	// BreakerTrip is the number of consecutive Recovered/InvalidProgram/
	// error outcomes for one app fingerprint that trips its circuit
	// breaker (default 3; <0 disables the breaker). BreakerCooldown is
	// how long a tripped circuit stays open before a single probe is
	// admitted (default 30s).
	BreakerTrip     int
	BreakerCooldown time.Duration
	// RetainJobs bounds how many finished jobs stay queryable (default
	// 1024). The oldest finished jobs are evicted first; queued and
	// running jobs are never evicted.
	RetainJobs int
	// SummaryDir, when non-empty, gives the daemon a persistent
	// method-summary store shared by every job (see internal/summarystore):
	// a resubmitted app update replays the summaries of its unchanged
	// methods instead of re-solving them (warm re-analysis). The store
	// never changes any job's leak report; its effect shows up in the
	// summary.store.* metrics and the per-job summary counters.
	SummaryDir string
	// DisableReflection turns off the reflection-resolving constant-
	// propagation pass for every job (kill switch; see
	// core.Options.ResolveReflection). It is part of the summary-store
	// config fingerprint, so daemons sharing a
	// SummaryDir across the toggle invalidate cleanly instead of
	// replaying summaries recorded against the other call graph.
	DisableReflection bool
	// Recorder receives the service and pipeline metrics. Nil runs the
	// service unobserved (every instrument no-ops).
	Recorder *metrics.Recorder
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Analyses <= 0 {
		c.Analyses = 2
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.BreakerTrip == 0 {
		c.BreakerTrip = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	return c
}

// Request is one analysis submission: the app package plus the
// per-request bounds. Unset bounds inherit the server defaults.
type Request struct {
	// Files is the in-memory app package (manifest, layouts, IR code),
	// the same map core.AnalyzeFiles loads.
	Files map[string]string `json:"files"`
	// Deadline bounds this job's analysis; 0 inherits the server
	// default, values above the server maximum are clamped.
	Deadline time.Duration `json:"deadline,omitempty"`
	// MaxPropagations is the taint propagation budget (0 inherits the
	// server default).
	MaxPropagations int `json:"maxPropagations,omitempty"`
	// Degrade enables the CHA/access-path degradation ladder on budget
	// exhaustion.
	Degrade bool `json:"degrade,omitempty"`
	// APLength overrides the maximal access-path length (0 = paper
	// default of 5).
	APLength int `json:"apLength,omitempty"`
	// UseCHA selects the CHA call graph instead of points-to.
	UseCHA bool `json:"useCHA,omitempty"`
	// Lint runs the IR verifier before the solvers; Error diagnostics
	// end the job with status InvalidProgram.
	Lint bool `json:"lint,omitempty"`
	// Sinks restricts the analysis to the named sink selectors (demand-
	// driven query mode); empty analyzes all sinks. The report is the
	// whole-program report filtered to the queried sinks. Unknown
	// selectors fail the job.
	Sinks []string `json:"sinks,omitempty"`
}

// JobState is the lifecycle of an admitted job.
type JobState int

const (
	// Queued means admitted but not yet picked up by an executor.
	Queued JobState = iota
	// Running means an executor is analyzing the app.
	Running
	// Done means the analysis returned a core.Result (which itself may
	// report a truncated status such as DeadlineExceeded).
	Done
	// Failed means the job produced no result: the app failed to load or
	// the analysis died outside core's own stage recovery.
	Failed
)

func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// job is the internal mutable job record; all fields are guarded by
// Server.mu after construction.
type job struct {
	id          string
	fingerprint string
	state       JobState
	workers     int
	submitted   time.Time
	started     time.Time
	finished    time.Time
	req         Request
	result      *core.Result
	err         error
}

// JobView is an immutable snapshot of a job, safe to hold outside the
// server lock. Result is nil until the job is Done; a Done result is
// never mutated afterwards, so sharing the pointer is safe.
type JobView struct {
	ID          string
	Fingerprint string
	State       JobState
	// Workers is the taint-worker share granted from the global budget
	// (0 until the job starts).
	Workers                      int
	Submitted, Started, Finished time.Time
	Result                       *core.Result
	Err                          error
}

// Admission errors. ErrQueueFull and ErrDraining are retriable from the
// client's point of view (the HTTP layer maps them to 429 and 503);
// CircuitOpenError carries the remaining cooldown.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrDraining  = errors.New("service: draining, not admitting jobs")
)

// CircuitOpenError rejects a submission whose app fingerprint has a
// tripped circuit breaker.
type CircuitOpenError struct {
	Fingerprint string
	// RetryAfter is the remaining cooldown before a probe is admitted.
	RetryAfter time.Duration
}

func (e *CircuitOpenError) Error() string {
	return fmt.Sprintf("service: circuit open for app %s (retry in %v)", e.Fingerprint, e.RetryAfter.Round(time.Millisecond))
}

// JobFingerprint keys a submission for the circuit breaker and job
// identity: the app package's content fingerprint, suffixed with the
// sink-query fingerprint when the request queries specific sinks. The
// same app under different queries runs different pipelines (different
// cones, different dummy mains), so their failure histories must not
// pollute each other's breaker state.
func JobFingerprint(req Request) string {
	fp := Fingerprint(req.Files)
	if qfp := (core.Query{Sinks: req.Sinks}).Fingerprint(); qfp != "" {
		fp += "+" + qfp
	}
	return fp
}

// Fingerprint content-hashes an app package: sorted file names and
// contents. Two submissions of byte-identical packages share a
// fingerprint — the unit the circuit breaker keys on.
func Fingerprint(files map[string]string) string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", n, len(files[n]))
		h.Write([]byte(files[n]))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Server is the resident analysis service. Create with New, submit with
// Submit, stop with Shutdown.
type Server struct {
	cfg Config
	rec *metrics.Recorder

	// runCtx parents every job context; cancelRun deadline-cancels all
	// in-flight analyses during a forced drain.
	runCtx    context.Context
	cancelRun context.CancelFunc

	queue  chan *job
	wg     sync.WaitGroup
	budget *workerBudget
	brk    *breaker
	// store is the shared persistent summary store (nil without
	// Config.SummaryDir); core scopes sessions by app and configuration
	// fingerprint, so concurrent jobs share it safely.
	store *summarystore.Store

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	finished []string // finished job IDs in completion order, for eviction
	nextID   int

	// beforeJob, when set (tests only), runs at the start of each job
	// with the job's bounded context; blocking it holds the executor.
	beforeJob func(ctx context.Context, id string)

	cSubmitted     *metrics.Counter
	cRejectedFull  *metrics.Counter
	cRejectedOpen  *metrics.Counter
	cRejectedDrain *metrics.Counter
	cDone          *metrics.Counter
	cFailed        *metrics.Counter
	cTripped       *metrics.Counter
	gQueue         *metrics.Gauge
	gActive        *metrics.Gauge
	gLeased        *metrics.Gauge
}

// New starts a Server: its executors begin waiting for jobs
// immediately. Stop it with Shutdown.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		rec:       cfg.Recorder,
		runCtx:    ctx,
		cancelRun: cancel,
		queue:     make(chan *job, cfg.QueueSize),
		budget:    newWorkerBudget(cfg.WorkerBudget, cfg.Analyses),
		brk:       newBreaker(cfg.BreakerTrip, cfg.BreakerCooldown),
		store:     summarystore.Open(cfg.SummaryDir),
		jobs:      make(map[string]*job),

		cSubmitted:     cfg.Recorder.Counter("service.submitted", metrics.Schedule),
		cRejectedFull:  cfg.Recorder.Counter("service.rejected.queue_full", metrics.Schedule),
		cRejectedOpen:  cfg.Recorder.Counter("service.rejected.circuit_open", metrics.Schedule),
		cRejectedDrain: cfg.Recorder.Counter("service.rejected.draining", metrics.Schedule),
		cDone:          cfg.Recorder.Counter("service.completed", metrics.Schedule),
		cFailed:        cfg.Recorder.Counter("service.failed", metrics.Schedule),
		cTripped:       cfg.Recorder.Counter("service.breaker.tripped", metrics.Schedule),
		gQueue:         cfg.Recorder.Gauge("service.queue.depth", metrics.Schedule),
		gActive:        cfg.Recorder.Gauge("service.active", metrics.Schedule),
		gLeased:        cfg.Recorder.Gauge("service.workers.leased", metrics.Schedule),
	}
	for i := 0; i < cfg.Analyses; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Submit admits a job or rejects it without buffering. Rejections:
// ErrDraining once Shutdown started, *CircuitOpenError when the app's
// fingerprint has a tripped breaker, ErrQueueFull when the queue is at
// capacity. An admitted job is queryable via Job until evicted.
func (s *Server) Submit(req Request) (JobView, error) {
	if len(req.Files) == 0 {
		return JobView{}, errors.New("service: empty app package")
	}
	fp := JobFingerprint(req)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.cRejectedDrain.Add(1)
		return JobView{}, ErrDraining
	}
	if wait, open := s.brk.deny(fp, time.Now()); open {
		s.mu.Unlock()
		s.cRejectedOpen.Add(1)
		return JobView{}, &CircuitOpenError{Fingerprint: fp, RetryAfter: wait}
	}
	s.nextID++
	j := &job{
		id:          fmt.Sprintf("job-%d", s.nextID),
		fingerprint: fp,
		state:       Queued,
		submitted:   time.Now(),
		req:         req,
	}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		// The gauge reads the channel's own length at both ends, so it
		// can never exceed the queue's capacity: counting +1 here and -1
		// in runJob would read capacity+1 when a submit lands between
		// the executor's receive and its decrement.
		s.gQueue.Set(int64(len(s.queue)))
		view := snapshot(j)
		s.mu.Unlock()
		s.cSubmitted.Add(1)
		return view, nil
	default:
		s.nextID-- // the ID was never exposed
		s.mu.Unlock()
		s.cRejectedFull.Add(1)
		return JobView{}, ErrQueueFull
	}
}

// Job returns a snapshot of the job, or ok == false for an unknown (or
// evicted) ID.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return snapshot(j), true
}

// Jobs returns snapshots of all retained jobs in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, snapshot(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Submitted.Before(out[k].Submitted) })
	return out
}

// Stats is the live health view /healthz serves.
type Stats struct {
	Draining   bool  `json:"draining"`
	QueueDepth int64 `json:"queueDepth"`
	QueueCap   int   `json:"queueCap"`
	Active     int64 `json:"active"`
	Retained   int   `json:"retainedJobs"`
}

// Stats reports the server's live state.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Draining:   s.draining,
		QueueDepth: int64(len(s.queue)),
		QueueCap:   s.cfg.QueueSize,
		Active:     s.gActive.Load(),
		Retained:   len(s.jobs),
	}
}

func snapshot(j *job) JobView {
	return JobView{
		ID:          j.id,
		Fingerprint: j.fingerprint,
		State:       j.state,
		Workers:     j.workers,
		Submitted:   j.submitted,
		Started:     j.started,
		Finished:    j.finished,
		Result:      j.result,
		Err:         j.err,
	}
}

// executor drains the queue until it is closed (drain) and empty.
func (s *Server) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob analyzes one admitted job under its bounds and records the
// outcome. Panics that escape core's own stage recovery are contained
// here so an executor can never die.
func (s *Server) runJob(j *job) {
	s.gQueue.Set(int64(len(s.queue)))
	grant := s.budget.acquire()
	s.gLeased.Set(int64(s.budget.leasedNow()))
	s.mu.Lock()
	j.state = Running
	j.started = time.Now()
	j.workers = grant
	s.mu.Unlock()
	s.gActive.Add(1)

	deadline := j.req.Deadline
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx := metrics.Into(s.runCtx, s.rec)
	ctx, cancel := context.WithTimeout(ctx, deadline)

	if hook := s.beforeJob; hook != nil {
		hook(ctx, j.id)
	}

	opts := core.DefaultOptions()
	opts.Taint.Workers = grant
	opts.MaxPropagations = j.req.MaxPropagations
	if opts.MaxPropagations == 0 {
		opts.MaxPropagations = s.cfg.DefaultMaxPropagations
	}
	opts.Degrade = j.req.Degrade
	opts.UseCHA = j.req.UseCHA
	opts.Lint = j.req.Lint
	opts.Query = core.Query{Sinks: j.req.Sinks}
	if j.req.APLength > 0 {
		opts.Taint.APLength = j.req.APLength
	}
	opts.ResolveReflection = !s.cfg.DisableReflection
	opts.SummaryStore = s.store

	res, err := analyze(ctx, j.req.Files, opts)
	cancel()
	s.budget.release(grant)
	s.gLeased.Set(int64(s.budget.leasedNow()))
	s.gActive.Add(-1)

	bad := err != nil || res.Status == core.Recovered || res.Status == core.InvalidProgram
	if s.brk.record(j.fingerprint, bad, time.Now()) {
		s.cTripped.Add(1)
	}

	s.mu.Lock()
	j.finished = time.Now()
	j.result, j.err = res, err
	if err != nil {
		j.state = Failed
	} else {
		j.state = Done
	}
	s.retire(j.id)
	s.mu.Unlock()
	if err != nil {
		s.cFailed.Add(1)
	} else {
		s.cDone.Add(1)
	}
}

// analyze runs one bounded analysis, converting any panic that escapes
// the pipeline's own stage recovery into an error so the executor
// survives (the same backstop the corpus driver uses).
func analyze(ctx context.Context, files map[string]string, opts core.Options) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("service: analysis panicked: %v", r)
		}
	}()
	return core.AnalyzeFiles(ctx, files, opts)
}

// retire appends a finished job to the eviction order and evicts the
// oldest finished jobs beyond the retention cap. Caller holds s.mu.
func (s *Server) retire(id string) {
	s.finished = append(s.finished, id)
	for len(s.finished) > s.cfg.RetainJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Shutdown drains the server: admission stops immediately (Submit
// returns ErrDraining), queued and in-flight jobs run to completion,
// and every executor exits. If ctx expires first, all in-flight
// analyses are context-cancelled — they finish quickly with partial
// DeadlineExceeded results — and Shutdown still waits for the
// executors before returning ctx's error. Shutdown is idempotent;
// later calls wait for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.cancelRun()
		<-done
	}
	s.cancelRun()
	return forced
}

package core

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"

	"flowdroid/internal/metrics"
	"flowdroid/internal/taint"
)

// Status classifies how a pipeline run ended. Every entry point returns a
// partial, explained result instead of hanging or crashing: a truncated
// run still carries the stages it finished and their counters.
type Status int

const (
	// Complete means every stage ran to its fixed point.
	Complete Status = iota
	// DeadlineExceeded means the context expired or was cancelled before
	// the pipeline finished; the result holds what was computed so far.
	DeadlineExceeded
	// BudgetExhausted means the propagation budget (Options.
	// MaxPropagations) ran out during the taint solve.
	BudgetExhausted
	// Recovered means a stage panicked; the panic was converted into
	// Result.Failure and the stages completed before it are preserved.
	Recovered
	// LeakLimitReached means the taint solve stopped at the configured
	// MaxLeaks cap; the reported leaks are a truncated set and more may
	// exist.
	LeakLimitReached
	// InvalidProgram means the IR verifier (Options.Lint) found
	// Error-severity defects in the program; no solver ran. The
	// diagnostics are in Result.Lint.
	InvalidProgram
)

func (s Status) String() string {
	switch s {
	case Complete:
		return "Complete"
	case DeadlineExceeded:
		return "DeadlineExceeded"
	case BudgetExhausted:
		return "BudgetExhausted"
	case Recovered:
		return "Recovered"
	case LeakLimitReached:
		return "LeakLimitReached"
	case InvalidProgram:
		return "InvalidProgram"
	}
	return "Unknown"
}

// Err is nil for a Complete run; otherwise it names the run's status and,
// when Recovered, the panic. Suite drivers score it as the case's error.
func (r *Result) Err() error {
	if r.Status == Complete {
		return nil
	}
	if r.Failure != nil {
		return fmt.Errorf("core: run ended %v: %w", r.Status, r.Failure)
	}
	return fmt.Errorf("core: run ended %v", r.Status)
}

// Failure describes a panic that a pipeline stage recovered from.
type Failure struct {
	// Stage is the pipeline pass that panicked (scene, sourcesink,
	// verify, constprop, cone, callbacks, lifecycle, callgraph, icfg,
	// summaries, taint).
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (f *Failure) Error() string {
	return fmt.Sprintf("core: stage %s panicked: %v", f.Stage, f.Value)
}

// Counters are the per-stage effort counters of a run. A truncated run
// reports what it did finish; zero fields belong to stages never reached.
// They are the only counter schema: service.Report (the daemon's job
// result and cmd/flowdroid -json) encodes them as its "counters" object,
// the corpus rollup sums them, and AnalyzeApp publishes the recorder
// series tagged `metric:"name,counter|gauge[,schedule]"` from them. A
// series is published when its `pass` was reached or, with no pass tag,
// when it is nonzero. So a new counter is one field, with its wire and
// metric names. The first eight are always emitted on the wire; the rest
// are mode-specific and omitted when zero.
type Counters struct {
	// CallGraphEdges is the number of call edges in the final graph.
	CallGraphEdges int `json:"callGraphEdges" metric:"callgraph.edges,gauge" pass:"callgraph"`
	// PTAPropagations counts points-to set insertions (zero under CHA).
	PTAPropagations int `json:"ptaPropagations" metric:"pta.propagations,counter" pass:"callgraph"`
	// Propagations counts the taint solver's novel path-edge insertions,
	// the unit MaxPropagations charges.
	Propagations int `json:"propagations" metric:"taint.propagations,counter" pass:"taint"`
	// PathEdges counts distinct forward plus backward path edges.
	PathEdges int `json:"pathEdges"`
	// Summaries counts method summaries the taint solver installed.
	Summaries int `json:"summaries" metric:"taint.summaries,counter" pass:"taint"`
	// PeakAbstractions is the taint solver's interned fact count.
	PeakAbstractions int `json:"peakAbstractions" metric:"taint.abstractions,counter" pass:"taint"`
	// Bodies counts the app's method bodies and BodiesParsed those parsed
	// by the end of the run: the loader only declares them, and a body is
	// parsed when a pass first reads it.
	Bodies       int `json:"bodies" metric:"load.bodies,gauge"`
	BodiesParsed int `json:"bodiesParsed" metric:"load.bodies_parsed,gauge"`
	// ConeMethods is the size of the query's sink-reaching cone and
	// SkippedComponents the number of components left out of dummy-main
	// modeling because they were entirely outside it (both zero on
	// whole-program runs).
	ConeMethods       int `json:"coneMethods,omitempty" metric:"cone.methods,gauge" pass:"cone"`
	SkippedComponents int `json:"skippedComponents,omitempty" metric:"cone.skipped_components,gauge" pass:"cone"`
	// ReflectionResolved and ReflectionUnresolved count the reflective
	// call sites the constant-propagation pass turned into real call
	// edges versus left opaque (both zero with reflection resolution
	// off).
	ReflectionResolved   int `json:"reflectionResolved,omitempty" metric:"soundness.reflection.resolved,gauge" pass:"constprop"`
	ReflectionUnresolved int `json:"reflectionUnresolved,omitempty" metric:"soundness.reflection.unresolved,gauge" pass:"constprop"`
	// Summary-store effect counters, all zero when no store was
	// configured (Options.SummaryStore). Hits/Misses/Invalidated/Corrupt
	// classify the store lookups the solver made; MethodsReused and
	// MethodsExplored split the reachable analyzable methods into those
	// covered by replayed summaries versus those actually re-solved;
	// SummariesPersisted counts the method-context records handed to the
	// store after a completed run. SummaryFlushErrors is 1 when writing
	// them to disk failed (full disk, permissions, a root that is not a
	// directory): the analysis is unaffected, but the records are lost
	// and the next run re-solves those methods.
	SummaryHits        int `json:"summaryHits,omitempty" metric:"summary.store.hit,counter" pass:"summaries"`
	SummaryMisses      int `json:"summaryMisses,omitempty" metric:"summary.store.miss,counter" pass:"summaries"`
	SummaryInvalidated int `json:"summaryInvalidated,omitempty" metric:"summary.store.invalidated,counter" pass:"summaries"`
	SummaryCorrupt     int `json:"summaryCorrupt,omitempty" metric:"summary.store.corrupt,counter" pass:"summaries"`
	MethodsExplored    int `json:"methodsExplored,omitempty" metric:"summary.store.methods_explored,counter" pass:"summaries"`
	MethodsReused      int `json:"methodsReused,omitempty" metric:"summary.store.methods_reused,counter" pass:"summaries"`
	SummariesPersisted int `json:"summariesPersisted,omitempty" metric:"summary.store.persisted,counter" pass:"summaries"`
	SummaryFlushErrors int `json:"summaryFlushErrors,omitempty" metric:"summary.store.flush_errors,counter,schedule"`
}

// Add sums o into c field by field: the rollup of many runs.
func (c *Counters) Add(o Counters) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(cv.Field(i).Int() + ov.Field(i).Int())
	}
}

// publish writes a finished run's record into the recorder: every
// Counters field with a metric tag. It is the only writer of these
// series, so they equal the result by construction. A pass-tagged series
// is published when its pass has a PassTimes entry. Counters add, so a
// recorder shared by many runs sums them; gauges hold the last run's
// value.
func publish(rec *metrics.Recorder, res *Result) {
	if rec == nil {
		return
	}
	v := reflect.ValueOf(res.Counters)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name, opts, ok := strings.Cut(f.Tag.Get("metric"), ",")
		if !ok {
			continue
		}
		n, pass := v.Field(i).Int(), f.Tag.Get("pass")
		_, reached := res.PassTimes[pass]
		if pass == "" && n == 0 || pass != "" && !reached {
			continue // its pass was never reached, or its event never happened
		}
		class := metrics.Deterministic
		if strings.HasSuffix(opts, ",schedule") {
			class = metrics.Schedule
		}
		if strings.HasPrefix(opts, "gauge") {
			rec.Gauge(name, class).Set(n)
		} else {
			rec.Counter(name, class).Add(n)
		}
	}
}

func countersFromTaint(c *Counters, st taint.Stats) {
	c.Propagations = st.Propagations
	c.PathEdges = st.PathEdges()
	c.Summaries = st.Summaries
	c.PeakAbstractions = st.PeakAbstractions
	c.ConeMethods = st.ConeMethods
	c.SkippedComponents = st.SkippedComponents
	if ss := st.Store; ss != nil {
		c.SummaryHits = ss.Hits
		c.SummaryMisses = ss.Misses
		c.SummaryInvalidated = ss.Invalidated
		c.SummaryCorrupt = ss.Corrupt
		c.MethodsExplored = ss.MethodsExplored
		c.MethodsReused = ss.MethodsReused
		c.SummariesPersisted = ss.Persisted
	}
}

// stackTrace captures the panicking goroutine's stack for Failure.Stack.
func stackTrace() []byte { return debug.Stack() }

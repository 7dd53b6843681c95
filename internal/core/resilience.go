package core

import (
	"fmt"
	"runtime/debug"

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
	// exist. Unlike BudgetExhausted this is not retried down the degrade
	// ladder — the cap is a configured cutoff, not a resource failure.
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

// Failure describes a panic that a pipeline stage recovered from.
type Failure struct {
	// Stage is the pipeline stage that panicked (scene, callbacks,
	// lifecycle, callgraph, icfg, sourcesink, taint).
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
// They are also the wire schema: service.Report (the daemon's job result
// and cmd/flowdroid -json) encodes them as its "counters" object, so a
// new counter is one field here. The first seven are always emitted; the
// rest are mode-specific and omitted when zero.
type Counters struct {
	// CallGraphEdges is the number of call edges in the final graph.
	CallGraphEdges int `json:"callGraphEdges"`
	// PTAPropagations counts points-to set insertions (zero under CHA).
	PTAPropagations int `json:"ptaPropagations"`
	// Propagations counts the taint solver's novel path-edge insertions,
	// the unit MaxPropagations charges.
	Propagations int `json:"propagations"`
	// PathEdges counts distinct forward plus backward path edges.
	PathEdges int `json:"pathEdges"`
	// Summaries counts method summaries the taint solver installed.
	Summaries int `json:"summaries"`
	// PeakAbstractions is the taint solver's interned fact count.
	PeakAbstractions int `json:"peakAbstractions"`
	// Workers is the taint solver's worker-pool size (1 = sequential).
	Workers int `json:"workers"`
	// ConeMethods is the size of the query's sink-reaching cone and
	// SkippedComponents the number of components left out of dummy-main
	// modeling because they were entirely outside it (both zero on
	// whole-program runs).
	ConeMethods       int `json:"coneMethods,omitempty"`
	SkippedComponents int `json:"skippedComponents,omitempty"`
	// ReflectionResolved and ReflectionUnresolved count the reflective
	// call sites the constant-propagation pass turned into real call
	// edges versus left opaque (both zero with reflection resolution
	// off).
	ReflectionResolved   int `json:"reflectionResolved,omitempty"`
	ReflectionUnresolved int `json:"reflectionUnresolved,omitempty"`
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
	SummaryHits        int `json:"summaryHits,omitempty"`
	SummaryMisses      int `json:"summaryMisses,omitempty"`
	SummaryInvalidated int `json:"summaryInvalidated,omitempty"`
	SummaryCorrupt     int `json:"summaryCorrupt,omitempty"`
	MethodsExplored    int `json:"methodsExplored,omitempty"`
	MethodsReused      int `json:"methodsReused,omitempty"`
	SummariesPersisted int `json:"summariesPersisted,omitempty"`
	SummaryFlushErrors int `json:"summaryFlushErrors,omitempty"`
}

func countersFromTaint(c *Counters, st taint.Stats) {
	c.Propagations = st.Propagations
	c.PathEdges = st.PathEdges()
	c.Summaries = st.Summaries
	c.PeakAbstractions = st.PeakAbstractions
	c.Workers = st.Workers
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

// degradeStep is one rung of the graceful-degradation ladder.
type degradeStep struct {
	name  string
	apply func(*Options)
}

// degradeLadder returns the downgrade rungs applicable to opts, cheapest
// precision loss first: swap points-to for CHA, then shorten access
// paths. Each rung is cumulative with the previous ones.
func degradeLadder(opts Options) []degradeStep {
	var steps []degradeStep
	if !opts.UseCHA {
		steps = append(steps, degradeStep{"cha-callgraph", func(o *Options) { o.UseCHA = true }})
	}
	if opts.Taint.APLength > 3 || opts.Taint.APLength <= 0 {
		steps = append(steps, degradeStep{"ap-length=3", func(o *Options) { o.Taint.APLength = 3 }})
	}
	if opts.Taint.APLength > 1 || opts.Taint.APLength <= 0 {
		steps = append(steps, degradeStep{"ap-length=1", func(o *Options) { o.Taint.APLength = 1 }})
	}
	return steps
}

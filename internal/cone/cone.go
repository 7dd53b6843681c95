// Package cone implements the backward reachability-cone pass of the
// demand-driven query mode: starting from the statements that match the
// queried sinks, it walks the call relation in reverse (resolved with the
// scene's shared CHA resolver) and computes which methods can reach a
// queried sink at all. Components none of whose entry points are in the
// cone need no dummy-main modeling, and the taint solver need not explore
// call trees the query cannot observe — the BackDroid-style insight that
// a sink-targeted query only needs the slice of the program behind its
// sinks.
//
// The cone is a CHA over-approximation of any call graph the pipeline
// later builds (the points-to builder only refines CHA target sets), so
// pruning against it never loses a flow the whole-program analysis would
// report for the queried sinks. Two wider closures guard the channels a
// pure call-reachability argument misses:
//
//   - escape: methods whose call tree reaches a queried sink OR writes a
//     static field. Taint can leave an otherwise-irrelevant component
//     through static fields and surface at a sink elsewhere, so only
//     components with no entry point in this set are skippable.
//   - relevant: escape plus methods whose call tree contains a potential
//     source. The solver's zero (exploration) fact exists to discover
//     sources; descending it into a tree with no potential sources, no
//     queried sinks and no static writes cannot change the report.
package cone

import (
	"context"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/ir"
	"flowdroid/internal/metrics"
	"flowdroid/internal/sourcesink"
)

// Cone is the result of the backward reachability pass for one query.
type Cone struct {
	// inCone holds the methods that can transitively reach a statement
	// matching a queried sink (the reachability cone proper).
	inCone map[*ir.Method]bool
	// escape additionally closes over static-field writers: the set that
	// decides component skippability.
	escape map[*ir.Method]bool
	// relevant additionally closes over potential sources: the set the
	// solver prunes zero-fact exploration against.
	relevant map[*ir.Method]bool

	// SinkStmts counts the statements matching a queried sink.
	SinkStmts int
}

// Build computes the cone for the manager's queried sinks over the whole
// program. Pass a scene.Scene as the hierarchy to reuse its shared
// resolver. Build walks every method body once to find sink statements,
// potential sources, static-field writes and reverse call edges, then
// closes backward from the three root sets. A cancelled context yields a
// partial (unsound) cone; callers must discard it, as the pipeline's
// truncation handling does.
func Build(ctx context.Context, h ir.Hierarchy, mgr *sourcesink.Manager) *Cone {
	return BuildWithExtra(ctx, h, mgr, nil)
}

// BuildWithExtra is Build with additional resolved call edges — site
// statement to target method — folded into the reverse call relation.
// Resolved reflective edges participate in the backward closure exactly
// like ordinary call edges: a sink reachable only through a reflective
// bridge still pulls the invoking method (and its callers) into the
// cone, keeping demand-driven pruning consistent with the reflection-
// aware call graph the pipeline builds afterwards.
func BuildWithExtra(ctx context.Context, h ir.Hierarchy, mgr *sourcesink.Manager, extra map[ir.Stmt][]*ir.Method) *Cone {
	res := callgraph.ResolverFor(h)
	c := &Cone{
		inCone:   make(map[*ir.Method]bool),
		escape:   make(map[*ir.Method]bool),
		relevant: make(map[*ir.Method]bool),
	}
	// callersOf is the reverse CHA call relation over every method body,
	// independent of any entry point — dummy-main generation happens
	// after this pass, precisely because its shape depends on the cone.
	callersOf := make(map[*ir.Method][]*ir.Method)
	var sinkRoots, writeRoots, srcRoots []*ir.Method
	classes := h.Classes()
	for ci, cls := range classes {
		if ci%64 == 0 && ctx.Err() != nil {
			return c
		}
		for _, m := range cls.Methods() {
			if m.Abstract() {
				continue
			}
			// A method whose parameters are sources (framework callbacks
			// like onLocationChanged) is a source root itself: its seeded
			// taints live under the zero context, and only zero-descend
			// from its callers links the summaries back out.
			var isSink, isWrite bool
			isSrc := len(mgr.ParamSources(m)) > 0
			for _, s := range m.Body() {
				if a, ok := s.(*ir.AssignStmt); ok {
					if _, static := a.LHS.(*ir.StaticFieldRef); static {
						isWrite = true
					}
				}
				call := ir.CallOf(s)
				if call == nil {
					continue
				}
				if _, _, ok := mgr.SinkAtCall(s); ok {
					isSink = true
					c.SinkStmts++
				}
				if mgr.PotentialSourceAt(s) {
					isSrc = true
				}
				for _, t := range res.TargetsOf(call) {
					if !t.Abstract() {
						callersOf[t] = append(callersOf[t], m)
					}
				}
				for _, t := range extra[s] {
					if !t.Abstract() {
						callersOf[t] = append(callersOf[t], m)
					}
				}
			}
			if isSink {
				sinkRoots = append(sinkRoots, m)
			}
			if isWrite {
				writeRoots = append(writeRoots, m)
			}
			if isSrc {
				srcRoots = append(srcRoots, m)
			}
		}
	}
	closeOver(c.inCone, callersOf, sinkRoots)
	closeOver(c.escape, callersOf, sinkRoots)
	closeOver(c.escape, callersOf, writeRoots)
	closeOver(c.relevant, callersOf, sinkRoots)
	closeOver(c.relevant, callersOf, writeRoots)
	closeOver(c.relevant, callersOf, srcRoots)
	if rec := metrics.From(ctx); rec != nil {
		rec.Gauge("cone.sink_stmts", metrics.Deterministic).Set(int64(c.SinkStmts))
	}
	return c
}

// closeOver adds the roots and everything that reaches them (backward
// over callersOf) into set.
func closeOver(set map[*ir.Method]bool, callersOf map[*ir.Method][]*ir.Method, roots []*ir.Method) {
	var stack []*ir.Method
	for _, r := range roots {
		if !set[r] {
			set[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, caller := range callersOf[m] {
			if !set[caller] {
				set[caller] = true
				stack = append(stack, caller)
			}
		}
	}
}

// Reaches reports whether m can transitively reach a queried sink.
func (c *Cone) Reaches(m *ir.Method) bool { return c.inCone[m] }

// Methods is the size of the reachability cone.
func (c *Cone) Methods() int { return len(c.inCone) }

// Escapes reports whether m's call tree can reach a queried sink or write
// a static field. A component with no entry point in this set cannot
// contribute to the query's report, directly or through the static heap,
// and is safe to skip in dummy-main modeling.
func (c *Cone) Escapes(m *ir.Method) bool { return c.escape[m] }

// Relevant reports whether descending the solver's zero exploration fact
// into m can matter to the query: m's call tree contains a potential
// source, a queried sink, or a static-field write.
func (c *Cone) Relevant(m *ir.Method) bool { return c.relevant[m] }

// ComponentSkippable reports whether a component whose dummy-main entry
// points (implemented lifecycle methods plus discovered callbacks) are
// the given methods can be skipped entirely.
func (c *Cone) ComponentSkippable(entries []*ir.Method) bool {
	for _, m := range entries {
		if m != nil && c.Escapes(m) {
			return false
		}
	}
	return true
}

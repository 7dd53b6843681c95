// Package cone implements the reachability cone of the demand-driven
// query mode: which methods can reach a statement matching a queried
// sink at all. Components none of whose entry points are in the cone
// need no dummy-main modeling, and the taint solver need not explore
// call trees the query cannot observe — the BackDroid-style insight that
// a sink-targeted query only needs the slice of the program behind its
// sinks.
//
// The cone is answered on demand: asking about a method walks forward
// from it over the CHA call relation (resolved with the scene's shared
// resolver) plus the reflective edges, reading only the bodies that walk
// reaches. A method's answer is "some method it can reach holds a root",
// which is exactly "it is in the backward closure from the roots" over
// the same relation, so the answers are those of a whole-program
// backward pass without its parse of every body.
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
	"flowdroid/internal/sourcesink"
)

// What a method's call tree holds, one bit per root kind.
const (
	sinkBit  uint8 = 1 << iota // a statement matching a queried sink
	writeBit                   // a static-field write
	srcBit                     // a potential source, or a source parameter
)

// Cone answers reachability questions for one query. It memoizes every
// answer and is not safe for concurrent use: one analysis owns it.
type Cone struct {
	res   *callgraph.Resolver
	mgr   *sourcesink.Manager
	extra map[ir.Stmt][]*ir.Method

	// nodes holds the walk state of every method examined so far.
	nodes map[*ir.Method]*node
	// next numbers nodes in visiting order; stack holds the visited
	// methods whose strongly connected component is still open (Tarjan).
	next  int
	stack []*node
	// methods counts the examined methods that reach a queried sink.
	methods int

	// SinkStmts counts the statements matching a queried sink in the
	// methods examined so far.
	SinkStmts int
}

// node is one examined method. Once its component is closed (it is off
// the stack), bits is what its whole call tree holds; before, it is what
// its own body and the closed components it calls hold.
type node struct {
	index, low int
	onStack    bool
	bits       uint8
}

// BuildWithExtra returns the cone for the manager's queried sinks. Pass
// a scene.Scene as the hierarchy to reuse its shared resolver. It reads
// no body: each question reads the bodies its answer depends on, once,
// so ctx is not consulted — the passes asking watch their own.
//
// extra holds additional resolved call edges — site statement to target
// method, nil for none — walked like ordinary call edges. A sink
// reachable only through a reflective bridge still puts the invoking
// method (and its callers) in the cone, keeping demand-driven pruning
// consistent with the reflection-aware call graph the pipeline builds
// afterwards.
func BuildWithExtra(_ context.Context, h ir.Hierarchy, mgr *sourcesink.Manager, extra map[ir.Stmt][]*ir.Method) *Cone {
	return &Cone{
		res:   callgraph.ResolverFor(h),
		mgr:   mgr,
		extra: extra,
		nodes: make(map[*ir.Method]*node),
	}
}

// bitsOf returns what m's call tree holds, walking what was not walked
// before.
func (c *Cone) bitsOf(m *ir.Method) uint8 {
	if m.Abstract() {
		return 0
	}
	n := c.nodes[m]
	if n == nil {
		n = c.visit(m)
	}
	return n.bits
}

// visit is Tarjan's strongly-connected-components walk from m: every
// method of one component reaches the same roots, so when a component
// closes, each member's answer is the union of the members' own bits
// and those of the (already closed) components they call.
func (c *Cone) visit(m *ir.Method) *node {
	n := &node{index: c.next, low: c.next, onStack: true}
	c.next++
	c.nodes[m] = n
	c.stack = append(c.stack, n)

	// A method whose parameters are sources (framework callbacks like
	// onLocationChanged) is a source root itself: its seeded taints live
	// under the zero context, and only zero-descend from its callers
	// links the summaries back out.
	if len(c.mgr.ParamSources(m)) > 0 {
		n.bits |= srcBit
	}
	for _, s := range m.Body() {
		if a, ok := s.(*ir.AssignStmt); ok {
			if _, static := a.LHS.(*ir.StaticFieldRef); static {
				n.bits |= writeBit
			}
		}
		call := ir.CallOf(s)
		if call == nil {
			continue
		}
		if _, _, ok := c.mgr.SinkAtCall(s); ok {
			n.bits |= sinkBit
			c.SinkStmts++
		}
		if c.mgr.PotentialSourceAt(s) {
			n.bits |= srcBit
		}
		for _, t := range c.res.TargetsOf(call) {
			c.edge(n, t)
		}
		for _, t := range c.extra[s] {
			c.edge(n, t)
		}
	}

	if n.low == n.index {
		// n roots a component: everything above it on the stack.
		i := len(c.stack) - 1
		for c.stack[i] != n {
			i--
		}
		var bits uint8
		for _, w := range c.stack[i:] {
			bits |= w.bits
		}
		for _, w := range c.stack[i:] {
			w.bits, w.onStack = bits, false
			if bits&sinkBit != 0 {
				c.methods++
			}
		}
		c.stack = c.stack[:i]
	}
	return n
}

// edge follows the call edge from n to t.
func (c *Cone) edge(n *node, t *ir.Method) {
	if t.Abstract() {
		return
	}
	w := c.nodes[t]
	if w == nil {
		w = c.visit(t)
		n.low = min(n.low, w.low)
	} else if w.onStack {
		n.low = min(n.low, w.index)
	}
	if !w.onStack {
		n.bits |= w.bits
	}
}

// Reaches reports whether m can transitively reach a queried sink.
func (c *Cone) Reaches(m *ir.Method) bool { return c.bitsOf(m)&sinkBit != 0 }

// Methods is the number of methods examined so far that can reach a
// queried sink: the part of the cone the run's questions needed.
func (c *Cone) Methods() int { return c.methods }

// Escapes reports whether m's call tree can reach a queried sink or write
// a static field. A component with no entry point in this set cannot
// contribute to the query's report, directly or through the static heap,
// and is safe to skip in dummy-main modeling.
func (c *Cone) Escapes(m *ir.Method) bool { return c.bitsOf(m)&(sinkBit|writeBit) != 0 }

// Relevant reports whether descending the solver's zero exploration fact
// into m can matter to the query: m's call tree contains a potential
// source, a queried sink, or a static-field write.
func (c *Cone) Relevant(m *ir.Method) bool { return c.bitsOf(m) != 0 }

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

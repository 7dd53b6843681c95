// Package callgraph builds and represents call graphs over the IR. Two
// builders are provided: a fast class-hierarchy analysis (CHA) used during
// callback discovery, and a points-to-refined builder (in internal/pta,
// the stand-in for Soot's Spark) used for the final graph the taint
// analysis runs on.
package callgraph

import (
	"context"
	"sort"

	"flowdroid/internal/ir"
)

// Graph is a call graph: a set of entry methods, call edges from call
// statements to target methods, and the derived reachable-method set.
type Graph struct {
	Entries []*ir.Method

	calleesOf map[ir.Stmt][]*ir.Method
	reachable []*ir.Method
	reachSet  map[*ir.Method]bool
}

// NewGraph creates an empty graph with the given entry points.
func NewGraph(entries ...*ir.Method) *Graph {
	g := &Graph{
		Entries:   entries,
		calleesOf: make(map[ir.Stmt][]*ir.Method),
		reachSet:  make(map[*ir.Method]bool),
	}
	for _, e := range entries {
		g.markReachable(e)
	}
	return g
}

// AddEdge records that call site s may invoke target. Duplicate edges are
// ignored. The target becomes reachable.
func (g *Graph) AddEdge(s ir.Stmt, target *ir.Method) {
	for _, t := range g.calleesOf[s] {
		if t == target {
			return
		}
	}
	g.calleesOf[s] = append(g.calleesOf[s], target)
	g.markReachable(target)
}

func (g *Graph) markReachable(m *ir.Method) {
	if !g.reachSet[m] {
		g.reachSet[m] = true
		g.reachable = append(g.reachable, m)
	}
}

// CalleesOf returns the possible targets of the call statement s.
func (g *Graph) CalleesOf(s ir.Stmt) []*ir.Method { return g.calleesOf[s] }

// Reachable returns all reachable methods in discovery order.
func (g *Graph) Reachable() []*ir.Method { return g.reachable }

// IsReachable reports whether m is reachable from the entries.
func (g *Graph) IsReachable(m *ir.Method) bool { return g.reachSet[m] }

// NumEdges returns the total number of call edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, ts := range g.calleesOf {
		n += len(ts)
	}
	return n
}

// Reach is the reusable scratch of ReachesTransitively queries: a
// visited mark per method and a work stack. The zero value is ready. A
// Reach belongs to one goroutine, so the caller owns it, not the Graph,
// which analyses share once built.
type Reach struct {
	// visited holds the number of the query that last visited each
	// method, so a new query needs no clearing.
	visited map[*ir.Method]uint32
	query   uint32
	stack   []*ir.Method
}

// ReachesTransitively reports whether any method of the call site s's
// callee subtree is the method m, i.e. whether invoking s can transitively
// execute m. The taint analysis uses this to decide whether a call site
// can activate an inactive alias taint (activation statements represent
// call trees). The walk runs on r's scratch and allocates only while r's
// tables grow.
func (g *Graph) ReachesTransitively(s ir.Stmt, m *ir.Method, r *Reach) bool {
	if r.visited == nil {
		r.visited = make(map[*ir.Method]uint32)
	}
	if r.query++; r.query == 0 { // wrapped: old marks would read as this query's
		clear(r.visited)
		r.query = 1
	}
	r.stack = r.stack[:0]
	push := func(site ir.Stmt) {
		for _, t := range g.calleesOf[site] {
			if r.visited[t] != r.query {
				r.visited[t] = r.query
				r.stack = append(r.stack, t)
			}
		}
	}
	push(s)
	for len(r.stack) > 0 {
		cur := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		if cur == m {
			return true
		}
		for _, st := range cur.Body() {
			if ir.IsCall(st) {
				push(st)
			}
		}
	}
	return false
}

// Resolver resolves the possible runtime targets of invocation
// expressions against a program model using declared types and the class
// hierarchy (CHA). The PTA builder refines virtual calls; everything else
// shares this logic. Resolution is memoized per declared (class, name,
// arity) site, so a resolver is cheapest when long-lived — the scene
// layer keeps one per program and hands it to every phase.
type Resolver struct {
	h ir.Hierarchy
	// nameIndex maps (name, nargs) to all concrete declarations, for the
	// fallback when no declared type is available. It is built on the
	// first fallback (nil until then): a resolver that only ever sees
	// typed receivers never walks the whole program.
	nameIndex map[nameKey][]*ir.Method

	virtCache map[virtKey][]*ir.Method
}

type nameKey struct {
	name  string
	nargs int
}

// virtKey identifies a virtual dispatch question: the declared receiver
// class plus the invoked signature. Every call site with the same key has
// the same CHA target set.
type virtKey struct {
	class string
	name  string
	nargs int
}

// NewResolver builds a resolver over a program model. Passing a cached
// hierarchy (scene.Scene) makes the subtype and member lookups O(1);
// passing *ir.Program preserves the historical walk-per-query behaviour.
func NewResolver(h ir.Hierarchy) *Resolver {
	return &Resolver{h: h, virtCache: make(map[virtKey][]*ir.Method)}
}

// byName returns every declaration of (name, nargs) program-wide.
func (r *Resolver) byName(name string, nargs int) []*ir.Method {
	if r.nameIndex == nil {
		r.nameIndex = make(map[nameKey][]*ir.Method)
		for _, c := range r.h.Classes() {
			for _, m := range c.Methods() {
				k := nameKey{m.Name, len(m.Params)}
				r.nameIndex[k] = append(r.nameIndex[k], m)
			}
		}
	}
	return r.nameIndex[nameKey{name, nargs}]
}

// ResolverProvider is implemented by program models that keep a shared,
// long-lived resolver (the scene layer). ResolverFor adopts it so the
// name index and dispatch cache are built once per program instead of
// once per call-graph construction.
type ResolverProvider interface {
	Resolver() *Resolver
}

// ResolverFor returns h's shared resolver when it provides one, and a
// fresh resolver otherwise.
func ResolverFor(h ir.Hierarchy) *Resolver {
	if rp, ok := h.(ResolverProvider); ok {
		if r := rp.Resolver(); r != nil {
			return r
		}
	}
	return NewResolver(h)
}

// StaticTargets resolves non-virtual calls (static and special invokes)
// and returns nil for virtual ones.
func (r *Resolver) StaticTargets(e *ir.InvokeExpr) []*ir.Method {
	switch e.Kind {
	case ir.StaticInvoke, ir.SpecialInvoke:
		if m := r.h.ResolveMethod(e.Ref.Class, e.Ref.Name, e.Ref.NArgs); m != nil {
			return []*ir.Method{m}
		}
	}
	return nil
}

// VirtualTargets resolves a virtual call with CHA: every subtype of the
// declared receiver class contributes the method it would dispatch to. If
// the declared class is unknown or resolves nothing, it falls back to all
// same-name declarations program-wide. Results are cached per declared
// site and returned in deterministic (sorted) order; callers must not
// mutate the returned slice.
func (r *Resolver) VirtualTargets(e *ir.InvokeExpr) []*ir.Method {
	declared := e.Ref.Class
	if e.Base != nil && e.Base.Type.IsRef() {
		declared = e.Base.Type.Name
	}
	k := virtKey{declared, e.Ref.Name, e.Ref.NArgs}
	if cached, ok := r.virtCache[k]; ok {
		return cached
	}
	targets := make(map[*ir.Method]bool)
	if declared != "" && r.h.Class(declared) != nil {
		for _, sub := range r.h.SubtypesOf(declared) {
			if c := r.h.Class(sub); c != nil && c.Interface {
				continue
			}
			if m := r.h.ResolveMethod(sub, e.Ref.Name, e.Ref.NArgs); m != nil {
				targets[m] = true
			}
		}
	}
	if len(targets) == 0 {
		for _, m := range r.byName(e.Ref.Name, e.Ref.NArgs) {
			targets[m] = true
		}
	}
	out := make([]*ir.Method, 0, len(targets))
	for m := range targets {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	r.virtCache[k] = out
	return out
}

// TargetsOf resolves all possible targets of an invocation with CHA.
func (r *Resolver) TargetsOf(e *ir.InvokeExpr) []*ir.Method {
	if ts := r.StaticTargets(e); ts != nil {
		return ts
	}
	if e.Kind == ir.VirtualInvoke {
		return r.VirtualTargets(e)
	}
	return nil
}

// DispatchOn resolves a virtual call for a single concrete receiver type,
// as the points-to builder does per allocation site.
func (r *Resolver) DispatchOn(runtimeClass string, e *ir.InvokeExpr) *ir.Method {
	return r.h.ResolveMethod(runtimeClass, e.Ref.Name, e.Ref.NArgs)
}

// BuildCHA constructs a call graph by class-hierarchy analysis from the
// given entry points, exploring only methods with bodies. A cancelled
// context stops the exploration early and yields the partial graph built
// so far. When h carries a shared resolver (scene.Scene), it is reused
// instead of re-indexing the program.
func BuildCHA(ctx context.Context, h ir.Hierarchy, entries ...*ir.Method) *Graph {
	return BuildCHAWithExtra(ctx, h, nil, entries...)
}

// BuildCHAWithExtra is BuildCHA with additional resolved call edges —
// site statement to target method — merged into the exploration. The
// constant-propagation pass supplies resolved reflective sites this
// way: each extra target is a synthesized bridge method that becomes
// reachable (and explorable) exactly like a statically resolved callee.
func BuildCHAWithExtra(ctx context.Context, h ir.Hierarchy, extra map[ir.Stmt][]*ir.Method, entries ...*ir.Method) *Graph {
	g := NewGraph(entries...)
	r := ResolverFor(h)
	seen := make(map[*ir.Method]bool)
	work := append([]*ir.Method(nil), entries...)
	steps := 0
	for len(work) > 0 {
		steps++
		if steps%256 == 0 && ctx.Err() != nil {
			return g
		}
		m := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[m] {
			continue
		}
		seen[m] = true
		for _, s := range m.Body() {
			call := ir.CallOf(s)
			if call == nil {
				continue
			}
			for _, t := range r.TargetsOf(call) {
				g.AddEdge(s, t)
				if !seen[t] && !t.Abstract() {
					work = append(work, t)
				}
			}
			for _, t := range extra[s] {
				g.AddEdge(s, t)
				if !seen[t] && !t.Abstract() {
					work = append(work, t)
				}
			}
		}
	}
	return g
}

// Package pta implements a flow-insensitive, subset-based (Andersen-style)
// points-to analysis with on-the-fly call-graph construction. It is the
// stand-in for Soot's Spark framework: its job is to resolve virtual
// dispatch precisely enough for the interprocedural CFG the taint analysis
// runs on, distinguishing objects by allocation site (object sensitivity
// at the call-graph level).
//
// Abstract objects are allocation sites. Pointer nodes are locals, static
// fields, per-site instance fields, and a per-site array-contents cell.
// Virtual call sites are resolved against the runtime types flowing into
// the receiver; sites whose receiver set stays empty (e.g. values produced
// by library stubs) fall back to declared-type CHA so that no call edge is
// lost.
package pta

import (
	"context"
	"slices"
	"sort"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/ir"
	"flowdroid/internal/metrics"
)

// Obj is an abstract object: an allocation site and its class.
type Obj struct {
	Site  ir.Stmt
	Class string
	// Array is set for array allocations.
	Array bool
}

// node identifies a pointer node in the constraint graph.
type node struct {
	// kind 0: local, 1: static field, 2: obj field, 3: obj array cell
	kind  int
	local *ir.Local
	field *ir.Field
	obj   int // object index for kinds 2 and 3
}

// Result holds the computed points-to sets and the call graph.
type Result struct {
	Graph *callgraph.Graph

	// Truncated is set when the context expired before the constraint
	// system reached its fixed point; the call graph is then a sound
	// partial view (edges discovered so far) but may miss targets.
	Truncated bool
	// Propagations counts points-to set insertions, the solver's unit of
	// work, for the pipeline's stage counters.
	Propagations int

	a *analysis
}

// PointsTo returns the abstract objects the local may refer to, in
// deterministic order.
func (r *Result) PointsTo(l *ir.Local) []Obj {
	ids := r.a.pts[node{kind: 0, local: l}]
	out := make([]Obj, 0, len(ids))
	for _, id := range ids {
		out = append(out, r.a.objs[id])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return stmtOrder(out[i].Site) < stmtOrder(out[j].Site)
	})
	return out
}

func stmtOrder(s ir.Stmt) string {
	if s == nil {
		return ""
	}
	return s.Method().String() + ":" + itoa(s.Index())
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// objset is a points-to set: object ids in increasing order. Every walk
// over a set visits its objects in id order, so the solver binds call
// edges, and the graph lists them, in the same order on every run.
type objset []int

// loadC is a pending load constraint "dst = base.field" attached to base.
type loadC struct {
	dst   node
	field *ir.Field // nil for array loads
}

// storeC is a pending store constraint "base.field = src" attached to base.
type storeC struct {
	src   node
	field *ir.Field // nil for array stores
}

// callC is a virtual call whose dispatch depends on the receiver's types.
type callC struct {
	site ir.Stmt
	expr *ir.InvokeExpr
}

type analysis struct {
	ctx    context.Context
	prog   ir.Hierarchy
	res    *callgraph.Resolver
	graph  *callgraph.Graph
	objs   []Obj
	objIDs map[ir.Stmt]int
	pts    map[node]objset
	succs  map[node][]node
	loads  map[node][]loadC
	stores map[node][]storeC
	calls  map[node][]callC
	work   []node
	inWork map[node]bool
	// set is solve's copy of the popped node's set: the solve inserts
	// into the sets it walks.
	set     objset
	visited map[*ir.Method]bool
	// bound remembers (site, target) pairs already wired up.
	bound map[edgeKey]bool
	// extra holds pre-resolved call edges (reflective bridges) bound at
	// their sites in addition to the static/dispatched targets.
	extra map[ir.Stmt][]*ir.Method

	propagations int
	truncated    bool
}

type edgeKey struct {
	site   ir.Stmt
	target *ir.Method
}

// Build runs the analysis from the given entry methods and returns the
// points-to result with its on-the-fly call graph. When the context is
// cancelled mid-solve the result is marked Truncated and carries the
// partial call graph computed so far. Passing a cached hierarchy
// (scene.Scene) reuses its shared resolver; passing *ir.Program builds a
// private one.
func Build(ctx context.Context, prog ir.Hierarchy, entries ...*ir.Method) *Result {
	return BuildWithExtra(ctx, prog, nil, entries...)
}

// BuildWithExtra is Build with additional resolved call edges — site
// statement to target method — wired into the constraint system. The
// constant-propagation pass supplies resolved reflective sites this
// way: the site's arguments flow positionally into the bridge target's
// parameters and the bridge's return value flows back to the call
// result, exactly like a statically resolved callee.
func BuildWithExtra(ctx context.Context, prog ir.Hierarchy, extra map[ir.Stmt][]*ir.Method, entries ...*ir.Method) *Result {
	a := &analysis{
		ctx:     ctx,
		extra:   extra,
		prog:    prog,
		res:     callgraph.ResolverFor(prog),
		graph:   callgraph.NewGraph(entries...),
		objIDs:  make(map[ir.Stmt]int),
		pts:     make(map[node]objset),
		succs:   make(map[node][]node),
		loads:   make(map[node][]loadC),
		stores:  make(map[node][]storeC),
		calls:   make(map[node][]callC),
		inWork:  make(map[node]bool),
		visited: make(map[*ir.Method]bool),
		bound:   make(map[edgeKey]bool),
	}
	for _, e := range entries {
		a.visitMethod(e)
	}
	a.solve()
	// Fall back to CHA for virtual sites whose receiver never received an
	// allocation site (library stub results, unmodeled values). The
	// fallback can make new methods reachable, so iterate to a fixed
	// point.
	rounds := 1
	for !a.truncated && a.applyFallback() {
		a.solve()
		rounds++
	}
	if rec := metrics.From(ctx); rec != nil {
		rec.Counter("pta.rounds", metrics.Deterministic).Add(int64(rounds))
		rec.Counter("pta.constraints", metrics.Deterministic).Add(int64(a.constraintCount()))
	}
	return &Result{Graph: a.graph, Truncated: a.truncated, Propagations: a.propagations, a: a}
}

// constraintCount totals the copy, load, store and call constraints the
// solve accumulated — the size of the constraint system, not the effort
// spent on it (that is propagations).
func (a *analysis) constraintCount() int {
	n := 0
	for _, s := range a.succs {
		n += len(s)
	}
	for _, s := range a.loads {
		n += len(s)
	}
	for _, s := range a.stores {
		n += len(s)
	}
	for _, s := range a.calls {
		n += len(s)
	}
	return n
}

func localNode(l *ir.Local) node  { return node{kind: 0, local: l} }
func staticNode(f *ir.Field) node { return node{kind: 1, field: f} }
func fieldNode(o int, f *ir.Field) node {
	return node{kind: 2, field: f, obj: o}
}
func arrayNode(o int) node { return node{kind: 3, obj: o} }

func (a *analysis) enqueue(n node) {
	if !a.inWork[n] {
		a.inWork[n] = true
		a.work = append(a.work, n)
	}
}

func (a *analysis) addObj(n node, id int) {
	s := a.pts[n]
	if i, found := slices.BinarySearch(s, id); !found {
		a.pts[n] = slices.Insert(s, i, id)
		a.propagations++
		a.enqueue(n)
	}
}

func (a *analysis) addEdge(from, to node) {
	for _, s := range a.succs[from] {
		if s == to {
			return
		}
	}
	a.succs[from] = append(a.succs[from], to)
	if len(a.pts[from]) > 0 {
		a.enqueue(from)
	}
}

// visitMethod collects the constraints of m's body (once).
func (a *analysis) visitMethod(m *ir.Method) {
	if a.visited[m] || m.Abstract() {
		return
	}
	a.visited[m] = true
	for _, s := range m.Body() {
		switch st := s.(type) {
		case *ir.AssignStmt:
			a.visitAssign(st)
		case *ir.InvokeStmt:
			a.visitCall(st, st.Call, nil)
		}
	}
}

func (a *analysis) visitAssign(s *ir.AssignStmt) {
	// Call with result.
	if call, ok := s.RHS.(*ir.InvokeExpr); ok {
		result, _ := s.LHS.(*ir.Local)
		a.visitCall(s, call, result)
		return
	}
	switch lhs := s.LHS.(type) {
	case *ir.Local:
		dst := localNode(lhs)
		switch rhs := s.RHS.(type) {
		case *ir.New:
			a.addObj(dst, a.objFor(s, rhs.Type.Name, false))
		case *ir.NewArray:
			a.addObj(dst, a.objFor(s, rhs.Elem.String()+"[]", true))
		case *ir.Local:
			a.addEdge(localNode(rhs), dst)
		case *ir.Cast:
			if x, ok := rhs.X.(*ir.Local); ok {
				a.addEdge(localNode(x), dst)
			}
		case *ir.FieldRef:
			base := localNode(rhs.Base)
			a.loads[base] = append(a.loads[base], loadC{dst: dst, field: rhs.Field})
			a.enqueue(base)
		case *ir.StaticFieldRef:
			a.addEdge(staticNode(rhs.Field), dst)
		case *ir.ArrayRef:
			base := localNode(rhs.Base)
			a.loads[base] = append(a.loads[base], loadC{dst: dst})
			a.enqueue(base)
		}
	case *ir.FieldRef:
		if src, ok := s.RHS.(*ir.Local); ok {
			base := localNode(lhs.Base)
			a.stores[base] = append(a.stores[base], storeC{src: localNode(src), field: lhs.Field})
			a.enqueue(base)
		}
	case *ir.StaticFieldRef:
		if src, ok := s.RHS.(*ir.Local); ok {
			a.addEdge(localNode(src), staticNode(lhs.Field))
		}
	case *ir.ArrayRef:
		if src, ok := s.RHS.(*ir.Local); ok {
			base := localNode(lhs.Base)
			a.stores[base] = append(a.stores[base], storeC{src: localNode(src)})
			a.enqueue(base)
		}
	}
}

func (a *analysis) objFor(site ir.Stmt, class string, isArray bool) int {
	if id, ok := a.objIDs[site]; ok {
		return id
	}
	id := len(a.objs)
	a.objs = append(a.objs, Obj{Site: site, Class: class, Array: isArray})
	a.objIDs[site] = id
	return id
}

func (a *analysis) visitCall(site ir.Stmt, call *ir.InvokeExpr, result *ir.Local) {
	for _, t := range a.extra[site] {
		a.bindCall(site, call, t, result)
	}
	if ts := a.res.StaticTargets(call); ts != nil {
		for _, t := range ts {
			a.bindCall(site, call, t, result)
		}
		return
	}
	if call.Kind != ir.VirtualInvoke || call.Base == nil {
		return
	}
	recv := localNode(call.Base)
	a.calls[recv] = append(a.calls[recv], callC{site: site, expr: call})
	a.enqueue(recv)
}

// bindCall wires argument, receiver-independent parameter and return
// constraints for one (site, target) pair and records the call edge.
func (a *analysis) bindCall(site ir.Stmt, call *ir.InvokeExpr, target *ir.Method, result *ir.Local) {
	k := edgeKey{site, target}
	a.graph.AddEdge(site, target)
	if a.bound[k] {
		return
	}
	a.bound[k] = true
	a.visitMethod(target)
	if !target.Abstract() {
		for i, p := range target.Params {
			if i >= len(call.Args) {
				break
			}
			if arg, ok := call.Args[i].(*ir.Local); ok {
				a.addEdge(localNode(arg), localNode(p))
			}
		}
		if result != nil {
			for _, ex := range target.ExitStmts() {
				ret := ex.(*ir.ReturnStmt)
				if rv, ok := ret.Value.(*ir.Local); ok {
					a.addEdge(localNode(rv), localNode(result))
				}
			}
		}
		// Special invokes (constructors) pass the receiver unfiltered.
		if call.Kind == ir.SpecialInvoke && call.Base != nil && target.This != nil {
			a.addEdge(localNode(call.Base), localNode(target.This))
		}
	}
}

// ctxCheckEvery is how many worklist pops happen between context polls.
const ctxCheckEvery = 256

func (a *analysis) solve() {
	steps := 0
	for len(a.work) > 0 {
		steps++
		if steps%ctxCheckEvery == 0 && a.ctx.Err() != nil {
			a.truncated = true
			return
		}
		n := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		a.inWork[n] = false
		a.set = append(a.set[:0], a.pts[n]...)
		set := a.set

		// Resolve field loads and stores through every object in the set.
		for _, lc := range a.loads[n] {
			for _, id := range set {
				var src node
				if lc.field != nil {
					src = fieldNode(id, lc.field)
				} else {
					src = arrayNode(id)
				}
				a.addEdge(src, lc.dst)
			}
		}
		for _, sc := range a.stores[n] {
			for _, id := range set {
				var dst node
				if sc.field != nil {
					dst = fieldNode(id, sc.field)
				} else {
					dst = arrayNode(id)
				}
				a.addEdge(sc.src, dst)
			}
		}
		// Dispatch virtual calls on the receiver's runtime types.
		for _, cc := range a.calls[n] {
			for _, id := range set {
				t := a.res.DispatchOn(a.objs[id].Class, cc.expr)
				if t == nil {
					continue
				}
				result := ir.CallResult(cc.site)
				a.bindCall(cc.site, cc.expr, t, result)
				if t.This != nil {
					a.addObj(localNode(t.This), id)
				}
			}
		}
		// Propagate along subset edges.
		for _, succ := range a.succs[n] {
			for _, id := range set {
				a.addObj(succ, id)
			}
		}
	}
}

// applyFallback adds CHA edges for virtual call sites still unresolved
// after solving (receiver points-to set empty). It reports whether any new
// binding happened.
func (a *analysis) applyFallback() bool {
	changed := false
	// Snapshot: visiting methods during iteration appends constraints.
	// Each method's rendered name is its sort key, rendered once.
	type keyed struct {
		key string
		m   *ir.Method
	}
	methods := make([]keyed, 0, len(a.visited))
	for m := range a.visited {
		methods = append(methods, keyed{m.String(), m})
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i].key < methods[j].key })
	for _, km := range methods {
		for _, s := range km.m.Body() {
			call := ir.CallOf(s)
			if call == nil || call.Kind != ir.VirtualInvoke || call.Base == nil {
				continue
			}
			if len(a.pts[localNode(call.Base)]) > 0 {
				continue
			}
			for _, t := range a.res.VirtualTargets(call) {
				k := edgeKey{s, t}
				if !a.bound[k] {
					a.bindCall(s, call, t, ir.CallResult(s))
					changed = true
				}
			}
		}
	}
	return changed
}

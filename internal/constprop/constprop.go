// Package constprop is a flow-sensitive, interprocedural constant-string
// propagation pass in the style of internal/irlint's analyzer framework,
// but producing facts instead of diagnostics. It tracks which string,
// Class and java.lang.reflect.Method values a local can hold when every
// contributing write is a compile-time constant: string literals, string
// concatenation (the + operator and String.concat), StringBuilder /
// StringBuffer chains (the PR 9 carrier insight applied to constants),
// fields with a single constant writer, and constants flowing through
// call arguments and returns.
//
// Its sole consumer today is reflection resolution: a
// Class.forName("C").getMethod("m").invoke(x, a) chain whose receiver
// and name strings resolve to a bounded constant set becomes a set of
// ordinary call-graph edges (via synthesized bridge methods, see
// Materialize in reflect.go), so the taint solver tracks flows through
// reflection with
// no solver changes. Every reflective site the pass cannot resolve is
// recorded in a SoundnessReport with the reason — non-constant string,
// unknown class, or dynamic loading — so a clean analysis result
// distinguishes "no leaks" from "no leaks among what I could see".
//
// The pass is demand-driven: its fixpoint runs only over the slice of
// methods whose facts can reach a reflective site (see analysis).
//
// The lattice is deliberately small: per local, either "unknown" (top),
// "no constant observed" (bottom), or a bounded set (maxSet) of strings,
// class names, (class, method) pairs, or StringBuilder contents. All
// imprecision degrades toward top, which downstream turns into an
// honestly reported unresolved site — never a missing report entry.
package constprop

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/ir"
)

// maxSet bounds every constant set the lattice tracks; a join that would
// exceed it goes to top (non-constant). Small keeps the fixpoint cheap
// and the resolved edge fan-out bounded.
const maxSet = 8

// maxRises bounds how often one interprocedural fact can change: it
// only rises, through bot, sets of 1..maxSet elements, and top. The
// worklist's step bound is derived from it.
const maxRises = maxSet + 1

type kind uint8

const (
	bot     kind = iota // no constant observed yet (unassigned path)
	strs                // a bounded set of string constants
	classes             // a bounded set of class names (java.lang.Class values)
	methods             // a bounded set of (class, method-name) pairs
	builder             // StringBuilder/StringBuffer contents, tracked per allocation site
	top                 // not a constant
)

// methodKey is one (class, method-name) element of a methods fact — the
// value a getMethod call produces.
type methodKey struct {
	class, name string
}

// fact is the lattice value of one local at one program point.
type fact struct {
	k     kind
	set   []string    // sorted; strs, classes, and builder contents
	meths []methodKey // sorted; methods
	// origin is the allocation site a builder fact tracks; appends update
	// every local sharing the origin, and joining two different origins
	// degrades to top.
	origin ir.Stmt
}

var topFact = fact{k: top}

func strsOf(ss ...string) fact {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return fact{k: strs, set: dedup(out)}
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func unionStrs(a, b []string) ([]string, bool) {
	out := make([]string, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Strings(out)
	out = dedup(out)
	if len(out) > maxSet {
		return nil, false
	}
	return out, true
}

// join is the lattice join. Facts of different kinds (or builders of
// different allocation sites) meet at top.
func join(a, b fact) fact {
	switch {
	case a.k == bot:
		return b
	case b.k == bot:
		return a
	case a.k == top || b.k == top || a.k != b.k:
		return topFact
	}
	switch a.k {
	case strs, classes:
		u, ok := unionStrs(a.set, b.set)
		if !ok {
			return topFact
		}
		return fact{k: a.k, set: u}
	case builder:
		if a.origin != b.origin {
			return topFact
		}
		u, ok := unionStrs(a.set, b.set)
		if !ok {
			return topFact
		}
		return fact{k: builder, set: u, origin: a.origin}
	case methods:
		out := make([]methodKey, 0, len(a.meths)+len(b.meths))
		out = append(out, a.meths...)
		out = append(out, b.meths...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].class != out[j].class {
				return out[i].class < out[j].class
			}
			return out[i].name < out[j].name
		})
		ded := out[:0]
		for i, m := range out {
			if i == 0 || m != out[i-1] {
				ded = append(ded, m)
			}
		}
		if len(ded) > maxSet {
			return topFact
		}
		return fact{k: methods, meths: ded}
	}
	return topFact
}

func equalFacts(a, b fact) bool {
	if a.k != b.k || a.origin != b.origin ||
		len(a.set) != len(b.set) || len(a.meths) != len(b.meths) {
		return false
	}
	for i := range a.set {
		if a.set[i] != b.set[i] {
			return false
		}
	}
	for i := range a.meths {
		if a.meths[i] != b.meths[i] {
			return false
		}
	}
	return true
}

// concat is the transfer of string concatenation: the cross product of
// two constant sets, bounded by maxSet. It is monotone: a bot operand
// (no value observed yet) yields bot, never top, so an early fixpoint
// round cannot poison a later one.
func concat(a, b fact) fact {
	if a.k == bot || b.k == bot {
		return fact{}
	}
	if a.k != strs || b.k != strs {
		return topFact
	}
	if len(a.set)*len(b.set) > maxSet {
		return topFact
	}
	out := make([]string, 0, len(a.set)*len(b.set))
	for _, x := range a.set {
		for _, y := range b.set {
			out = append(out, x+y)
		}
	}
	sort.Strings(out)
	return fact{k: strs, set: dedup(out)}
}

// joinInto joins src into dst slot by slot, reporting whether dst rose.
// Both are state vectors over one method's slots; an unvisited slot is
// bot, the zero fact.
func joinInto(dst, src []fact) bool {
	changed := false
	for l, f := range src {
		if f.k == bot || equalFacts(dst[l], f) {
			continue
		}
		if j := join(dst[l], f); !equalFacts(dst[l], j) {
			dst[l] = j
			changed = true
		}
	}
	return changed
}

// methodInfo is the fixpoint state of one method in the demand slice.
type methodInfo struct {
	m *ir.Method
	// slots numbers the method's locals; a state is a []fact indexed by
	// slot.
	slots map[*ir.Local]int
	// external pins the parameters top: framework callbacks (overriding a
	// bodyless declaration), static initializers, and methods with no
	// observed call site (callable from outside the analyzed code).
	external bool
	// paramIn[i] joins the i-th argument facts over every observed call
	// site; retOut joins the method's return-value facts.
	paramIn []fact
	retOut  fact
	// callers are the slice methods with a call site resolving here; a
	// change of retOut re-enqueues them.
	callers []*methodInfo
	// targets holds the resolved targets of each call statement, by
	// statement index.
	targets [][]*ir.Method
	queued  bool
}

// get reads l's fact from the state vector st.
func (mi *methodInfo) get(st []fact, l *ir.Local) fact {
	if i, ok := mi.slots[l]; ok {
		return st[i]
	}
	return fact{}
}

// set writes l's fact into the state vector st.
func (mi *methodInfo) set(st []fact, l *ir.Local, f fact) {
	if i, ok := mi.slots[l]; ok {
		st[i] = f
	}
}

// operand evaluates a call argument or binop operand under st.
func (mi *methodInfo) operand(st []fact, v ir.Value) fact {
	switch v := v.(type) {
	case *ir.Local:
		return mi.get(st, v)
	case *ir.Const:
		if v.Kind == ir.StringConst {
			return strsOf(v.Str)
		}
		return fact{} // null / int: no string constant, but no poison either
	}
	return topFact
}

// analysis is the demand-driven interprocedural fixpoint: it solves only
// the slice of methods that can influence a reflective site's arguments.
type analysis struct {
	ctx context.Context
	h   ir.Hierarchy
	res *callgraph.Resolver

	// methods are the analyzed (non-synthetic, non-interface, bodied)
	// methods in deterministic (class name, method name, arity) order;
	// reflective are those among them holding a reflective site, in the
	// same order.
	methods    []*ir.Method
	reflective []*ir.Method

	// fieldFacts memoizes fieldFact.
	fieldFacts map[*ir.Field]fact

	// info holds the state of each slice method; slice lists them in
	// methods order.
	info  map[*ir.Method]*methodInfo
	slice []*methodInfo

	// queue is the method worklist. maxSteps bounds the method analyses
	// it may run (a safety net: facts only rise, so the bound is never
	// reached unless a transfer function is broken); steps counts them.
	queue    []*methodInfo
	maxSteps int
	steps    int

	// in and cur are the reused state buffers of analyzeMethod: the
	// in-state of every statement, and the state of the visited one.
	in      []fact
	cur     []fact
	reached []bool
	inWork  []bool
	work    []int

	truncated bool
}

// isReflectiveSite reports whether call is one the classification pass
// records. getName alone does not count: it produces a fact but never a
// site.
func isReflectiveSite(call *ir.InvokeExpr) bool {
	k, _ := reflectiveAPI(call)
	return k != apiNone && k != apiGetName
}

// analyzed reports whether m is one of the methods the pass analyzes.
func analyzed(m *ir.Method) bool {
	return !m.Abstract() && !m.Class.Synthetic && !m.Class.Interface
}

// prescan is the one walk over every class: it collects the analyzed
// methods and those holding a reflective site, and reports whether there
// is any. That answer is the cheap early exit the dominant
// reflection-free program takes; only when it is yes is the slice
// built. A body loaded on demand is read only if the load-time scan saw
// a reflective API name in it: a site's callee name is always such a
// name.
func (a *analysis) prescan() bool {
	for _, c := range a.h.Classes() {
		if c.Synthetic || c.Interface {
			continue
		}
		for _, m := range c.Methods() {
			if m.Abstract() {
				continue
			}
			a.methods = append(a.methods, m)
			if facts, ok := m.Facts(); ok && !facts.Reflective {
				continue
			}
			for _, s := range m.Body() {
				if call := ir.CallOf(s); call != nil && isReflectiveSite(call) {
					a.reflective = append(a.reflective, m)
					break
				}
			}
		}
	}
	if len(a.reflective) == 0 {
		return false
	}
	a.res = callgraph.ResolverFor(a.h)
	a.info = make(map[*ir.Method]*methodInfo)
	a.fieldFacts = make(map[*ir.Field]fact)
	a.buildSlice()
	return true
}

// buildSlice closes the reflective methods over the methods whose facts
// reach them: callers (they feed paramIn) and callees whose return value
// is read (they feed retOut), transitively. Field facts are syntactic,
// so fields add nothing. A method's callers are looked for only among
// the bodies that may mention its name, so only those are parsed. It
// then sizes the worklist's step bound.
func (a *analysis) buildSlice() {
	var work []*methodInfo
	enter := func(m *ir.Method) *methodInfo {
		mi := a.info[m]
		if mi == nil {
			mi = newInfo(m)
			a.info[m] = mi
			work = append(work, mi)
		}
		return mi
	}
	for _, m := range a.reflective {
		enter(m)
	}
	for len(work) > 0 {
		mi := work[len(work)-1]
		work = work[:len(work)-1]
		m := mi.m
		for _, c := range a.methods {
			if c.MayMention(m.Name) && a.calls(c, m) {
				mi.callers = append(mi.callers, enter(c))
			}
		}
		mi.external = len(mi.callers) == 0 || m.Name == "clinit" || a.overridesExternal(m)
		mi.targets = make([][]*ir.Method, len(m.Body()))
		for i, s := range m.Body() {
			call := ir.CallOf(s)
			if call == nil {
				continue
			}
			mi.targets[i] = a.res.TargetsOf(call)
			if ir.CallResult(s) == nil {
				continue
			}
			for _, t := range mi.targets[i] {
				if analyzed(t) {
					enter(t)
				}
			}
		}
	}
	a.maxSteps = 0
	for _, m := range a.methods {
		if mi := a.info[m]; mi != nil {
			a.slice = append(a.slice, mi)
			a.maxSteps += 1 + maxRises*(len(m.Params)+len(mi.callers))
		}
	}
}

// calls reports whether a call statement of c may invoke m.
func (a *analysis) calls(c, m *ir.Method) bool {
	for _, s := range c.Body() {
		call := ir.CallOf(s)
		if call != nil && call.Ref.Name == m.Name && call.Ref.NArgs == len(m.Params) && slices.Contains(a.res.TargetsOf(call), m) {
			return true
		}
	}
	return false
}

// newInfo gives each of m's locals a slot. A statement only mentions
// locals registered with its method (irlint reports any other as a
// foreign local), so Locals covers every local a transfer touches.
func newInfo(m *ir.Method) *methodInfo {
	locals := m.Locals()
	mi := &methodInfo{m: m, slots: make(map[*ir.Local]int, len(locals)), paramIn: make([]fact, len(m.Params))}
	for i, l := range locals {
		mi.slots[l] = i
	}
	return mi
}

// overridesExternal reports whether m overrides a declaration visible
// outside the analyzed code — a bodyless (framework stub or interface)
// method reachable on its superclass chain or interfaces. Such methods
// can be invoked by the framework with arbitrary arguments, so their
// parameters are never constant.
func (a *analysis) overridesExternal(m *ir.Method) bool {
	if d := a.h.ResolveMethod(m.Class.Super, m.Name, len(m.Params)); d != nil {
		return true
	}
	for _, in := range m.Class.Interfaces {
		if d := a.h.ResolveMethod(in, m.Name, len(m.Params)); d != nil {
			return true
		}
	}
	return false
}

func (a *analysis) enqueue(mi *methodInfo) {
	if !mi.queued {
		mi.queued = true
		a.queue = append(a.queue, mi)
	}
}

// solve drives the interprocedural fixpoint over the slice: a method is
// re-analyzed when its paramIn or a callee's retOut changed, until the
// worklist drains. Running out of maxSteps means the facts did not
// converge; classifying sites on them would be wrong, so it panics, and
// the pipeline's stage recovery reports the run as Recovered.
func (a *analysis) solve() {
	for _, mi := range a.slice {
		a.enqueue(mi)
	}
	for len(a.queue) > 0 {
		if a.ctx.Err() != nil {
			a.truncated = true
			return
		}
		mi := a.queue[0]
		a.queue = a.queue[1:]
		mi.queued = false
		if a.steps == a.maxSteps {
			panic(fmt.Errorf("constprop: fixpoint did not converge within %d method analyses, at %s", a.maxSteps, mi.m))
		}
		a.steps++
		a.analyzeMethod(mi, nil)
		if a.truncated {
			return
		}
	}
}

// analyzeMethod runs the flow-sensitive intraprocedural worklist over
// mi's body under the current interprocedural environment; a change of a
// callee's paramIn or of mi's retOut enqueues the methods it affects.
// When visit is non-nil it is invoked at every call statement with the
// state holding immediately before the call (the classification pass of
// reflect.go).
func (a *analysis) analyzeMethod(mi *methodInfo, visit func(s ir.Stmt, call *ir.InvokeExpr, st []fact)) {
	body := mi.m.Body()
	if len(body) == 0 {
		return
	}
	// Only the entry state and the flags need zeroing: a statement's
	// in-state is written whole when it is first reached, and cur is
	// overwritten at every visit.
	n := len(mi.slots)
	a.in = resize(a.in, len(body)*n)
	a.cur = resize(a.cur, n)
	a.reached = resize(a.reached, len(body))
	a.inWork = resize(a.inWork, len(body))
	in, cur, reached, inWork := a.in, a.cur, a.reached, a.inWork
	clear(in[:n])
	clear(reached)
	clear(inWork)

	// Entry state.
	if m := mi.m; m.This != nil {
		mi.set(in, m.This, topFact)
	}
	for i, p := range mi.m.Params {
		if mi.external {
			mi.set(in, p, topFact)
		} else {
			// Starts at bot before any caller was analyzed and only ever
			// rises — the join over observed call sites is monotone.
			mi.set(in, p, mi.paramIn[i])
		}
	}
	reached[0] = true

	// flow joins cur into statement j's in-state and schedules j when it
	// rose (or was first reached). It mirrors cfg.MethodCFG's edge rules.
	flow := func(j int) {
		if j >= len(body) {
			return
		}
		dst := in[j*n : (j+1)*n]
		if !reached[j] {
			copy(dst, cur)
			reached[j] = true
		} else if !joinInto(dst, cur) {
			return
		}
		if !inWork[j] {
			inWork[j] = true
			a.work = append(a.work, j)
		}
	}
	a.work = append(a.work[:0], 0)
	inWork[0] = true
	steps := 0
	for len(a.work) > 0 {
		steps++
		if steps%1024 == 0 && a.ctx.Err() != nil {
			a.truncated = true
			return
		}
		i := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		inWork[i] = false
		copy(cur, in[i*n:(i+1)*n])
		if call := ir.CallOf(body[i]); call != nil && visit != nil {
			visit(body[i], call, cur)
		}
		a.transfer(mi, body[i], cur)
		switch s := body[i].(type) {
		case *ir.GotoStmt:
			flow(s.TargetIndex)
		case *ir.IfStmt:
			flow(i + 1)
			if s.TargetIndex != i+1 {
				flow(s.TargetIndex)
			}
		case *ir.ReturnStmt:
		default:
			flow(i + 1)
		}
	}
}

// resize returns buf with length n, reusing its storage when it can.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// transfer applies one statement to st in place.
func (a *analysis) transfer(mi *methodInfo, s ir.Stmt, st []fact) {
	switch stm := s.(type) {
	case *ir.ReturnStmt:
		if stm.Value == nil {
			return
		}
		if j := join(mi.retOut, mi.operand(st, stm.Value)); !equalFacts(mi.retOut, j) {
			mi.retOut = j
			for _, c := range mi.callers {
				a.enqueue(c)
			}
		}
	case *ir.InvokeStmt:
		a.transferCall(mi, s, stm.Call, nil, st)
	case *ir.AssignStmt:
		lhs, isLocal := stm.LHS.(*ir.Local)
		if call, ok := stm.RHS.(*ir.InvokeExpr); ok {
			var dst *ir.Local
			if isLocal {
				dst = lhs
			}
			a.transferCall(mi, s, call, dst, st)
			return
		}
		if !isLocal {
			// Writing a tracked builder into the heap lets unseen code
			// mutate it; drop every alias of its origin to stay sound.
			if src, ok := stm.RHS.(*ir.Local); ok {
				degradeBuilder(st, mi.get(st, src))
			}
			return
		}
		var f fact
		switch rhs := stm.RHS.(type) {
		case *ir.Const:
			if rhs.Kind == ir.StringConst {
				f = strsOf(rhs.Str)
			} else {
				f = topFact
			}
		case *ir.Local:
			f = mi.get(st, rhs)
		case *ir.Cast:
			if x, ok := rhs.X.(*ir.Local); ok {
				f = mi.get(st, x)
			} else {
				f = topFact
			}
		case *ir.Binop:
			if rhs.Op == "+" {
				f = concat(mi.operand(st, rhs.L), mi.operand(st, rhs.R))
			} else {
				f = topFact
			}
		case *ir.New:
			if rhs.Type.Name == "java.lang.StringBuilder" || rhs.Type.Name == "java.lang.StringBuffer" {
				f = fact{k: builder, set: []string{""}, origin: s}
			} else {
				f = topFact
			}
		case *ir.FieldRef:
			f = a.fieldFact(rhs.Field)
		case *ir.StaticFieldRef:
			f = a.fieldFact(rhs.Field)
		default:
			f = topFact
		}
		mi.set(st, lhs, f)
	}
}

// fieldFact is the constant a read of f observes: the written string
// literal when f has exactly one writer among the analyzed methods and
// it writes one, top otherwise — also for a never-written field, whose
// reads observe the default value, not a constant the analysis tracks.
// Writers are looked for only among the bodies that may mention f's
// name.
func (a *analysis) fieldFact(f *ir.Field) fact {
	if f == nil {
		return topFact
	}
	if ff, ok := a.fieldFacts[f]; ok {
		return ff
	}
	ff, writers := topFact, 0
	for _, m := range a.methods {
		if !m.MayMention(f.Name) {
			continue
		}
		for _, s := range m.Body() {
			as, ok := s.(*ir.AssignStmt)
			if !ok {
				continue
			}
			var fld *ir.Field
			switch lhs := as.LHS.(type) {
			case *ir.FieldRef:
				fld = lhs.Field
			case *ir.StaticFieldRef:
				fld = lhs.Field
			}
			if fld != f {
				continue
			}
			writers++
			if c, ok := as.RHS.(*ir.Const); ok && c.Kind == ir.StringConst && writers == 1 {
				ff = strsOf(c.Str)
			} else {
				ff = topFact
			}
		}
	}
	a.fieldFacts[f] = ff
	return ff
}

// degradeBuilder drops every alias of f's builder origin to top.
func degradeBuilder(st []fact, f fact) {
	if f.k != builder {
		return
	}
	for l, lf := range st {
		if lf.k == builder && lf.origin == f.origin {
			st[l] = topFact
		}
	}
}

// setBuilder updates every alias of origin to the new contents.
func setBuilder(st []fact, origin ir.Stmt, contents fact) {
	nf := topFact
	if contents.k == strs {
		nf = fact{k: builder, set: contents.set, origin: origin}
	}
	for l, lf := range st {
		if lf.k == builder && lf.origin == origin {
			st[l] = nf
		}
	}
}

// transferCall models one invocation: the string/Class/Method APIs get
// precise transfer functions; everything else propagates argument facts
// to resolvable slice callees and reads back their joined return fact.
func (a *analysis) transferCall(mi *methodInfo, s ir.Stmt, call *ir.InvokeExpr, result *ir.Local, st []fact) {
	setResult := func(f fact) {
		if result != nil {
			mi.set(st, result, f)
		}
	}

	// StringBuilder / StringBuffer chains, keyed by the receiver holding
	// a builder fact (not the declared type — a builder that escaped is
	// already top and falls through to the generic path).
	if call.Base != nil {
		if bf := mi.get(st, call.Base); bf.k == builder {
			switch {
			case call.Ref.Name == "append" && len(call.Args) == 1:
				contents := concat(fact{k: strs, set: bf.set}, mi.operand(st, call.Args[0]))
				setBuilder(st, bf.origin, contents)
				setResult(mi.get(st, call.Base))
			case call.Ref.Name == "toString" && len(call.Args) == 0:
				setResult(fact{k: strs, set: bf.set})
			case call.Ref.Name == "init":
				// Constructor: contents stay the allocation's "".
				setResult(fact{})
			default:
				// insert, reverse, deleteCharAt, … mutate the contents in
				// ways the pass does not model.
				degradeBuilder(st, bf)
				setResult(topFact)
			}
			return
		}
	}

	// Reflection data APIs. Bot inputs (no value observed yet on this
	// fixpoint round) yield bot, keeping the transfer monotone.
	switch api, _ := reflectiveAPI(call); api {
	case apiForName:
		switch f := mi.operand(st, call.Args[0]); f.k {
		case strs:
			setResult(fact{k: classes, set: f.set})
		case bot:
			setResult(fact{})
		default:
			setResult(topFact)
		}
		return
	case apiGetMethod:
		cf := mi.get(st, call.Base)
		nf := mi.operand(st, call.Args[0])
		switch {
		case cf.k == classes && nf.k == strs && len(cf.set)*len(nf.set) <= maxSet:
			pairs := make([]methodKey, 0, len(cf.set)*len(nf.set))
			for _, c := range cf.set {
				for _, n := range nf.set {
					pairs = append(pairs, methodKey{class: c, name: n})
				}
			}
			setResult(fact{k: methods, meths: pairs})
		case cf.k == bot || nf.k == bot:
			setResult(fact{})
		default:
			setResult(topFact)
		}
		return
	case apiGetName:
		switch cf := mi.get(st, call.Base); cf.k {
		case classes:
			setResult(fact{k: strs, set: cf.set})
		case bot:
			setResult(fact{})
		default:
			setResult(topFact)
		}
		return
	case apiNewInstance, apiInvoke, apiLoadClass:
		// Edges (or soundness entries) are handled by the classification
		// pass; the produced value itself is not a tracked constant.
		setResult(topFact)
		return
	}

	// Generic call: push argument facts into the slice's callees, pull
	// the joined return fact back. A builder passed to unmodeled code
	// escapes. A callee outside the slice has no reader of its facts.
	for _, arg := range call.Args {
		if l, ok := arg.(*ir.Local); ok {
			degradeBuilder(st, mi.get(st, l))
		}
	}
	targets := mi.targets[s.Index()]
	allKnown := len(targets) > 0
	ret := fact{}
	for _, t := range targets {
		if !analyzed(t) {
			allKnown = false
			continue
		}
		ti := a.info[t]
		if ti == nil {
			continue
		}
		for i := range ti.paramIn {
			var af fact = topFact
			if i < len(call.Args) {
				af = mi.operand(st, call.Args[i])
			}
			if j := join(ti.paramIn[i], af); !equalFacts(ti.paramIn[i], j) {
				ti.paramIn[i] = j
				a.enqueue(ti)
			}
		}
		ret = join(ret, ti.retOut)
	}
	if allKnown {
		setResult(ret)
	} else {
		setResult(topFact)
	}
}

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
// The lattice is deliberately small: per local, either "unknown" (top),
// "no constant observed" (bottom), or a bounded set (maxSet) of strings,
// class names, (class, method) pairs, or StringBuilder contents. All
// imprecision degrades toward top, which downstream turns into an
// honestly reported unresolved site — never a missing report entry.
package constprop

import (
	"context"
	"sort"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/ir"
)

// maxSet bounds every constant set the lattice tracks; a join that would
// exceed it goes to top (non-constant). Small keeps the fixpoint cheap
// and the resolved edge fan-out bounded.
const maxSet = 8

// maxRounds bounds the interprocedural fixpoint; the lattice height is
// tiny (sets only grow until maxSet, then top), so the bound exists only
// as a safety net against a transfer-function bug looping forever.
const maxRounds = 32

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

// state is the per-program-point environment: local → fact. Locals
// absent from the map are bot.
type state map[*ir.Local]fact

func (st state) clone() state {
	out := make(state, len(st))
	for l, f := range st {
		out[l] = f
	}
	return out
}

func (st state) joinInto(other state) bool {
	changed := false
	for l, f := range other {
		j := join(st[l], f)
		if !equalFacts(st[l], j) {
			st[l] = j
			changed = true
		}
	}
	return changed
}

// analysis holds the interprocedural fixpoint state.
type analysis struct {
	ctx context.Context
	h   ir.Hierarchy
	res *callgraph.Resolver

	// methods are the analyzed (app, non-synthetic, bodied) methods in
	// deterministic (class name, method name, arity) order.
	methods []*ir.Method
	inSet   map[*ir.Method]bool

	// external marks methods whose parameters are pinned top: framework
	// callbacks (overriding a bodyless declaration), static initializers,
	// and methods with no observed call site (callable from outside the
	// analyzed code).
	external map[*ir.Method]bool

	// paramIn[m][i] joins the i-th argument facts over every observed
	// call site of m; retOut[m] joins m's return-value facts.
	paramIn map[*ir.Method][]fact
	retOut  map[*ir.Method]fact

	// fieldFacts holds the constant for fields with exactly one writer
	// program-wide whose written value is a string literal; every other
	// written field maps to top.
	fieldFacts map[*ir.Field]fact

	// targets memoizes the resolver per call expression: transferCall
	// re-evaluates every call site on every worklist visit of every
	// fixpoint round, and the targets never change mid-pass.
	targets map[*ir.InvokeExpr][]*ir.Method

	truncated bool
}

func newAnalysis(ctx context.Context, h ir.Hierarchy) *analysis {
	a := &analysis{
		ctx:        ctx,
		h:          h,
		res:        callgraph.ResolverFor(h),
		inSet:      make(map[*ir.Method]bool),
		external:   make(map[*ir.Method]bool),
		paramIn:    make(map[*ir.Method][]fact),
		retOut:     make(map[*ir.Method]fact),
		fieldFacts: make(map[*ir.Field]fact),
		targets:    make(map[*ir.InvokeExpr][]*ir.Method),
	}
	for _, c := range h.Classes() {
		if c.Synthetic || c.Interface {
			continue
		}
		for _, m := range c.Methods() {
			if m.Abstract() {
				continue
			}
			a.methods = append(a.methods, m)
			a.inSet[m] = true
		}
	}
	a.prescan()
	return a
}

// prescan classifies externally-callable methods and collects the
// single-constant-writer field facts in one walk over every body.
func (a *analysis) prescan() {
	type fieldWrite struct {
		count int
		f     fact
	}
	writes := make(map[*ir.Field]*fieldWrite)
	hasSite := make(map[*ir.Method]bool)
	for _, m := range a.methods {
		for _, s := range m.Body() {
			if call := ir.CallOf(s); call != nil {
				for _, t := range a.targetsOf(call) {
					hasSite[t] = true
				}
			}
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
			if fld == nil {
				continue
			}
			w := writes[fld]
			if w == nil {
				w = &fieldWrite{}
				writes[fld] = w
			}
			w.count++
			if c, ok := as.RHS.(*ir.Const); ok && c.Kind == ir.StringConst {
				w.f = strsOf(c.Str)
			} else {
				w.f = topFact
			}
		}
	}
	for fld, w := range writes {
		if w.count == 1 && w.f.k == strs {
			a.fieldFacts[fld] = w.f
		} else {
			a.fieldFacts[fld] = topFact
		}
	}
	for _, m := range a.methods {
		if a.overridesExternal(m) || m.Name == "clinit" || !hasSite[m] {
			a.external[m] = true
		}
	}
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

// entryState is the environment at a method's start point.
func (a *analysis) entryState(m *ir.Method) state {
	st := make(state, len(m.Params)+1)
	if m.This != nil {
		st[m.This] = topFact
	}
	pin := a.paramIn[m]
	for i, p := range m.Params {
		switch {
		case a.external[m]:
			st[p] = topFact
		case i < len(pin):
			// Starts at bot before any caller was analyzed and only ever
			// rises — the join over observed call sites is monotone.
			st[p] = pin[i]
		}
	}
	return st
}

// run drives the interprocedural fixpoint: every method is analyzed
// intraprocedurally; argument facts observed at its call sites feed the
// callees' parameter environments and return facts feed call results,
// until a full round changes nothing.
func (a *analysis) run() {
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, m := range a.methods {
			if a.ctx.Err() != nil {
				a.truncated = true
				return
			}
			if a.analyzeMethod(m, nil) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// analyzeMethod runs the flow-sensitive intraprocedural worklist over
// m's body under the current interprocedural environment, returning
// whether any callee's paramIn or m's retOut changed. When visit is
// non-nil it is invoked at every call statement with the state holding
// immediately before the call (the classification pass of reflect.go).
func (a *analysis) analyzeMethod(m *ir.Method, visit func(s ir.Stmt, call *ir.InvokeExpr, st state)) bool {
	body := m.Body()
	if len(body) == 0 {
		return false
	}
	in := make([]state, len(body))
	in[0] = a.entryState(m)
	changed := false

	// succs mirrors cfg.MethodCFG's edge rules without allocating the
	// statement-slice wrappers on every visit.
	succsOf := func(i int) []int {
		switch s := body[i].(type) {
		case *ir.GotoStmt:
			return []int{s.TargetIndex}
		case *ir.IfStmt:
			if s.TargetIndex != i+1 {
				return []int{i + 1, s.TargetIndex}
			}
			return []int{i + 1}
		case *ir.ReturnStmt:
			return nil
		}
		if i+1 < len(body) {
			return []int{i + 1}
		}
		return nil
	}

	work := []int{0}
	inWork := make([]bool, len(body))
	inWork[0] = true
	steps := 0
	for len(work) > 0 {
		steps++
		if steps%1024 == 0 && a.ctx.Err() != nil {
			a.truncated = true
			return changed
		}
		i := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[i] = false
		st := in[i].clone()
		if call := ir.CallOf(body[i]); call != nil && visit != nil {
			visit(body[i], call, st)
		}
		if a.transfer(m, body[i], st) {
			changed = true
		}
		for _, j := range succsOf(i) {
			if j >= len(body) {
				continue
			}
			if in[j] == nil {
				in[j] = st.clone()
			} else if !in[j].joinInto(st) {
				continue
			}
			if !inWork[j] {
				inWork[j] = true
				work = append(work, j)
			}
		}
	}
	return changed
}

// operand evaluates a call argument or binop operand under st.
func operand(st state, v ir.Value) fact {
	switch v := v.(type) {
	case *ir.Local:
		return st[v]
	case *ir.Const:
		if v.Kind == ir.StringConst {
			return strsOf(v.Str)
		}
		return fact{} // null / int: no string constant, but no poison either
	}
	return topFact
}

// transfer applies one statement to st in place, reporting whether it
// changed any interprocedural fact (callee params, own return).
func (a *analysis) transfer(m *ir.Method, s ir.Stmt, st state) bool {
	switch stm := s.(type) {
	case *ir.ReturnStmt:
		if stm.Value == nil {
			return false
		}
		f := operand(st, stm.Value)
		j := join(a.retOut[m], f)
		if !equalFacts(a.retOut[m], j) {
			a.retOut[m] = j
			return true
		}
		return false
	case *ir.InvokeStmt:
		return a.transferCall(s, stm.Call, nil, st)
	case *ir.AssignStmt:
		lhs, isLocal := stm.LHS.(*ir.Local)
		if call, ok := stm.RHS.(*ir.InvokeExpr); ok {
			var dst *ir.Local
			if isLocal {
				dst = lhs
			}
			return a.transferCall(s, call, dst, st)
		}
		if !isLocal {
			// Writing a tracked builder into the heap lets unseen code
			// mutate it; drop every alias of its origin to stay sound.
			if src, ok := stm.RHS.(*ir.Local); ok {
				degradeBuilder(st, st[src])
			}
			return false
		}
		switch rhs := stm.RHS.(type) {
		case *ir.Const:
			if rhs.Kind == ir.StringConst {
				st[lhs] = strsOf(rhs.Str)
			} else {
				st[lhs] = topFact
			}
		case *ir.Local:
			st[lhs] = st[rhs]
		case *ir.Cast:
			if x, ok := rhs.X.(*ir.Local); ok {
				st[lhs] = st[x]
			} else {
				st[lhs] = topFact
			}
		case *ir.Binop:
			if rhs.Op == "+" {
				st[lhs] = concat(operand(st, rhs.L), operand(st, rhs.R))
			} else {
				st[lhs] = topFact
			}
		case *ir.New:
			if rhs.Type.Name == "java.lang.StringBuilder" || rhs.Type.Name == "java.lang.StringBuffer" {
				st[lhs] = fact{k: builder, set: []string{""}, origin: s}
			} else {
				st[lhs] = topFact
			}
		case *ir.FieldRef:
			st[lhs] = a.fieldFact(rhs.Field)
		case *ir.StaticFieldRef:
			st[lhs] = a.fieldFact(rhs.Field)
		default:
			st[lhs] = topFact
		}
	}
	return false
}

func (a *analysis) targetsOf(call *ir.InvokeExpr) []*ir.Method {
	if t, ok := a.targets[call]; ok {
		return t
	}
	t := a.res.TargetsOf(call)
	a.targets[call] = t
	return t
}

func (a *analysis) fieldFact(f *ir.Field) fact {
	if f == nil {
		return topFact
	}
	if ff, ok := a.fieldFacts[f]; ok {
		return ff
	}
	// Never-written field: reads observe the default value, not a
	// constant the analysis tracks.
	return topFact
}

// degradeBuilder drops every alias of f's builder origin to top.
func degradeBuilder(st state, f fact) {
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
func setBuilder(st state, origin ir.Stmt, contents fact) {
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
// to resolvable callees and reads back their joined return fact.
func (a *analysis) transferCall(s ir.Stmt, call *ir.InvokeExpr, result *ir.Local, st state) bool {
	setResult := func(f fact) {
		if result != nil {
			st[result] = f
		}
	}

	// StringBuilder / StringBuffer chains, keyed by the receiver holding
	// a builder fact (not the declared type — a builder that escaped is
	// already top and falls through to the generic path).
	if call.Base != nil {
		if bf := st[call.Base]; bf.k == builder {
			switch {
			case call.Ref.Name == "append" && len(call.Args) == 1:
				contents := concat(fact{k: strs, set: bf.set}, operand(st, call.Args[0]))
				setBuilder(st, bf.origin, contents)
				setResult(st[call.Base])
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
			return false
		}
	}

	// Reflection data APIs. Bot inputs (no value observed yet on this
	// fixpoint round) yield bot, keeping the transfer monotone.
	switch api, _ := reflectiveAPI(call); api {
	case apiForName:
		switch f := operand(st, call.Args[0]); f.k {
		case strs:
			setResult(fact{k: classes, set: f.set})
		case bot:
			setResult(fact{})
		default:
			setResult(topFact)
		}
		return false
	case apiGetMethod:
		cf := st[call.Base]
		nf := operand(st, call.Args[0])
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
		return false
	case apiGetName:
		switch cf := st[call.Base]; cf.k {
		case classes:
			setResult(fact{k: strs, set: cf.set})
		case bot:
			setResult(fact{})
		default:
			setResult(topFact)
		}
		return false
	case apiNewInstance, apiInvoke, apiLoadClass:
		// Edges (or soundness entries) are handled by the classification
		// pass; the produced value itself is not a tracked constant.
		setResult(topFact)
		return false
	}

	// Generic call: push argument facts into resolvable callees, pull
	// the joined return fact back. A builder passed to unmodeled code
	// escapes.
	for _, arg := range call.Args {
		if l, ok := arg.(*ir.Local); ok {
			degradeBuilder(st, st[l])
		}
	}
	changed := false
	targets := a.targetsOf(call)
	allKnown := len(targets) > 0
	ret := fact{}
	for _, t := range targets {
		if !a.inSet[t] {
			allKnown = false
			continue
		}
		pin := a.paramIn[t]
		if pin == nil {
			pin = make([]fact, len(t.Params))
			a.paramIn[t] = pin
		}
		for i := range t.Params {
			var af fact = topFact
			if i < len(call.Args) {
				af = operand(st, call.Args[i])
			}
			j := join(pin[i], af)
			if !equalFacts(pin[i], j) {
				pin[i] = j
				changed = true
			}
		}
		ret = join(ret, a.retOut[t])
	}
	if allKnown {
		setResult(ret)
	} else {
		setResult(topFact)
	}
	return changed
}

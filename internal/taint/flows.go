package taint

import (
	"flowdroid/internal/ir"
)

// appendField builds the access path for a store into base.field with the
// given value suffix, honoring the field-sensitivity setting: a
// field-insensitive engine taints the whole base object instead.
func (e *engine) appendField(base *ir.Local, f *ir.Field, suffix []*ir.Field) *AccessPath {
	if !e.conf.FieldSensitive {
		return e.in.local(base)
	}
	return e.in.appendField(base, f, suffix)
}

// normalFlow is the forward transfer function for non-call statements. It
// returns the facts holding after the statement and, separately, the
// newly created heap taints that must trigger the backward alias search.
func (e *engine) normalFlow(n ir.Stmt, d2 *Abstraction) (outs, triggers []*Abstraction) {
	if d2 == e.zero {
		return e.zero.self, nil
	}
	a, ok := n.(*ir.AssignStmt)
	if !ok {
		return d2.self, nil
	}
	ap := d2.AP

	// Pass-through with strong updates on locals: any assignment to a
	// local kills the taints rooted there ("assigning a new expression
	// to x erases all taints rooted at x", and likewise for copies —
	// the local now holds a different value). Heap locations are never
	// strongly updated.
	killed := false
	if lhs, isLocal := a.LHS.(*ir.Local); isLocal && e.conf.FlowSensitive && ap.Base == lhs && !ap.IsStatic() {
		killed = true
	}
	if !killed {
		outs = append(outs, d2)
	}

	// Gen: does the RHS evaluate to a tainted value under d2?
	suffix, tainted := e.rhsTaint(a.RHS, ap)
	if !tainted {
		return outs, nil
	}
	switch lhs := a.LHS.(type) {
	case *ir.Local:
		outs = append(outs, e.ai.derive(d2, e.in.local(lhs, suffix...), n))
	case *ir.FieldRef:
		na := e.ai.derive(d2, e.appendField(lhs.Base, lhs.Field, suffix), n)
		outs = append(outs, na)
		triggers = append(triggers, na)
	case *ir.ArrayRef:
		// Array writes taint the whole array (indices are not modeled —
		// the source of the ArrayAccess false positives in Table 1) —
		// unless the index-sensitive mode of the baselines is on and the
		// index is a compile-time constant.
		nap := e.in.local(lhs.Base)
		if e.conf.ArrayIndexSensitive {
			if c, ok := lhs.Index.(*ir.Const); ok && c.Kind != ir.StringConst && c.Kind != ir.NullConst {
				nap = e.in.appendField(lhs.Base, e.indexField(c.Int), suffix)
			}
		}
		na := e.ai.derive(d2, nap, n)
		outs = append(outs, na)
		triggers = append(triggers, na)
	case *ir.StaticFieldRef:
		outs = append(outs, e.ai.derive(d2, e.in.appendStatic(lhs.Field, suffix), n))
	}
	return outs, triggers
}

// rhsTaint determines whether evaluating the RHS yields a tainted value
// under the access path ap, and with which residual field suffix.
func (e *engine) rhsTaint(rhs ir.Value, ap *AccessPath) ([]*ir.Field, bool) {
	switch rhs := rhs.(type) {
	case *ir.Local:
		if ap.Base == rhs {
			return ap.Fields, true
		}
	case *ir.Cast:
		if x, ok := rhs.X.(*ir.Local); ok && ap.Base == x {
			return ap.Fields, true
		}
	case *ir.FieldRef:
		return loadSuffix(ap, rhs.Base, rhs.Field)
	case *ir.StaticFieldRef:
		return loadStaticSuffix(ap, rhs.Field)
	case *ir.ArrayRef:
		if ap.Base != rhs.Base {
			return nil, false
		}
		if e.conf.ArrayIndexSensitive {
			if c, ok := rhs.Index.(*ir.Const); ok && c.Kind != ir.StringConst && c.Kind != ir.NullConst {
				if len(ap.Fields) > 0 && ap.Fields[0].Class == e.idxClass {
					if ap.Fields[0] == e.indexField(c.Int) {
						return ap.Fields[1:], true
					}
					return nil, false // taint sits at a different index
				}
				return nil, true // whole-array taint covers every index
			}
			// Computed index: may read any element.
			return nil, true
		}
		// Reading any element of a tainted array yields a wholly
		// tainted value.
		return nil, true
	case *ir.Binop:
		if l, ok := rhs.L.(*ir.Local); ok && ap.Base == l {
			return nil, true
		}
		if r, ok := rhs.R.(*ir.Local); ok && ap.Base == r {
			return nil, true
		}
	}
	return nil, false
}

// callFlow maps a fact at a call site into the callee's entry context
// (actual-to-formal). Static-rooted taints flow in unchanged; the zero
// fact explores every callee.
func (e *engine) callFlow(call *ir.InvokeExpr, callee *ir.Method, d2 *Abstraction) []*Abstraction {
	if d2 == e.zero {
		return e.zero.self
	}
	ap := d2.AP
	if ap.IsStatic() {
		return d2.self
	}
	var out []*Abstraction
	if call.Base != nil && ap.Base == call.Base && callee.This != nil {
		out = append(out, e.ai.derive(d2, e.in.rebase(ap, callee.This), nil))
	}
	for i, arg := range call.Args {
		if l, ok := arg.(*ir.Local); ok && ap.Base == l && i < len(callee.Params) {
			out = append(out, e.ai.derive(d2, e.in.rebase(ap, callee.Params[i]), nil))
		}
	}
	return out
}

// returnFlow maps a fact at a callee exit back into the caller
// (formal-to-actual plus the return value). Parameter-rooted taints
// without fields map back only if the parameter is never reassigned in
// the callee (the local copy would not affect the caller's value).
func (e *engine) returnFlow(site ir.Stmt, callee *ir.Method, exit ir.Stmt, d2 *Abstraction) []*Abstraction {
	if d2 == e.zero {
		return nil
	}
	ap := d2.AP
	if ap.IsStatic() {
		return d2.self
	}
	call := ir.CallOf(site)
	var out []*Abstraction
	if callee.This != nil && ap.Base == callee.This && call.Base != nil {
		out = append(out, e.ai.derive(d2, e.in.rebase(ap, call.Base), site))
	}
	for i, p := range callee.Params {
		if ap.Base != p || i >= len(call.Args) {
			continue
		}
		if len(ap.Fields) == 0 && reassignsLocal(callee, p) {
			continue
		}
		if argLocal, ok := call.Args[i].(*ir.Local); ok {
			out = append(out, e.ai.derive(d2, e.in.rebase(ap, argLocal), site))
		}
	}
	if ret, ok := exit.(*ir.ReturnStmt); ok {
		if v, ok := ret.Value.(*ir.Local); ok && ap.Base == v {
			if result := ir.CallResult(site); result != nil {
				out = append(out, e.ai.derive(d2, e.in.rebase(ap, result), site))
			}
		}
	}
	return out
}

// reassignsLocal reports whether the method body assigns to l (beyond its
// parameter binding).
func reassignsLocal(m *ir.Method, l *ir.Local) bool {
	for _, s := range m.Body() {
		if a, ok := s.(*ir.AssignStmt); ok && a.LHS == ir.Value(l) {
			return true
		}
	}
	return false
}

// callToReturn is the forward flow across a call on the caller's side: it
// generates source taints, reports sinks, applies the library shortcut
// rules and the native-call default for bodyless targets, kills the
// redefined result local, and passes everything else through.
func (e *engine) callToReturn(n ir.Stmt, si *callSite, d1, d2 *Abstraction) []*Abstraction {
	call, result := si.call, si.result

	if d2 == e.zero {
		if src, ok := e.mgr.SourceAtCall(n); ok && result != nil {
			rec := e.sourceRecord(n, src)
			return []*Abstraction{e.zero, e.ai.get(e.in.local(result), true, nil, rec, nil, n)}
		}
		return e.zero.self
	}

	// Activation at call sites: the activation statement's call tree may
	// execute within this call.
	d2 = e.maybeActivateAtCall(n, d2)

	// Sink detection: only active taints leak.
	if d2.Active {
		if snk, args, ok := e.sinkOf(n, si); ok {
			for _, idx := range args {
				if idx < len(call.Args) {
					if l, ok := call.Args[idx].(*ir.Local); ok && d2.AP.Base == l {
						e.recordLeak(methodCtx{n.Method(), d1}, n, snk, d2)
					}
				}
			}
		}
	}

	// The call strongly updates its result local.
	if result != nil && d2.AP.Base == result && !d2.AP.IsStatic() {
		return nil
	}

	// Library handling for targets without analyzable bodies.
	if !si.stub {
		return d2.self
	}
	lib := e.libraryFlow(n, si, d1, d2)
	if len(lib) == 0 {
		return d2.self
	}
	outs := make([]*Abstraction, 0, len(lib)+1)
	outs = append(outs, d2)
	return append(outs, lib...)
}

// hasStubTarget reports whether the call may dispatch to a method without
// a body (or resolves to nothing at all), requiring wrapper/native
// handling. Memoized per call site via siteOf.
func (e *engine) hasStubTarget(n ir.Stmt) bool {
	all := e.icfg.AllCalleesOf(n)
	if len(all) == 0 {
		return true
	}
	for _, t := range all {
		if t.Abstract() {
			return true
		}
	}
	return false
}

// libraryFlow applies the taint-wrapper shortcut rules, or the
// native-call default when no rule matches: if any argument is tainted,
// the return value and the arguments become tainted. The resolved rule
// slice comes from the per-site cache.
func (e *engine) libraryFlow(n ir.Stmt, si *callSite, d1, d2 *Abstraction) []*Abstraction {
	call := si.call
	ap := d2.AP

	var outs []*Abstraction
	gen := func(slot int) {
		dst := e.slotPath(si, slot)
		if dst == nil {
			return
		}
		na := e.ai.derive(d2, dst, n)
		outs = append(outs, na)
		if slot == SlotReturn {
			return
		}
		// Wrapper-tainted objects may have aliases: a collection stored
		// in a field elsewhere, for instance. A carrier receiver's search
		// is skipped where the site's gate proves it report-neutral.
		if slot == SlotBase && si.carrier && e.carrierGate(n, si) {
			e.stats.gatedAliasQueries++
			return
		}
		e.spawnAliasSearch(n, d1, na)
	}

	if len(si.rules) > 0 {
		for _, r := range si.rules {
			if slotTainted(call, ap, r.From) {
				for _, to := range r.To {
					gen(to)
				}
			}
		}
		return outs
	}

	// Native default: any tainted argument taints the arguments and the
	// return value (Section 5, "Native Calls").
	anyArgTainted := false
	for i := range call.Args {
		if slotTainted(call, ap, i) {
			anyArgTainted = true
			break
		}
	}
	if anyArgTainted {
		gen(SlotReturn)
		for i, arg := range call.Args {
			if l, ok := arg.(*ir.Local); ok && l.Type.IsRef() && ap.Base != l {
				gen(i)
			}
		}
	}
	return outs
}

// slotPath interns the access path a slot destination denotes at this
// site, or nil when the slot has no materialization (missing result local,
// non-local argument).
func (e *engine) slotPath(s *callSite, slot int) *AccessPath {
	switch slot {
	case SlotReturn:
		if s.result == nil {
			return nil
		}
		return e.in.local(s.result)
	case SlotBase:
		if s.call.Base == nil {
			return nil
		}
		return e.in.local(s.call.Base)
	default:
		if slot < 0 || slot >= len(s.call.Args) {
			return nil
		}
		if l, ok := s.call.Args[slot].(*ir.Local); ok {
			return e.in.local(l)
		}
		return nil
	}
}

// slotTainted reports whether d2's access path roots at the slot.
func slotTainted(call *ir.InvokeExpr, ap *AccessPath, slot int) bool {
	switch slot {
	case SlotBase:
		return call.Base != nil && ap.Base == call.Base
	default:
		if slot < 0 || slot >= len(call.Args) {
			return false
		}
		l, ok := call.Args[slot].(*ir.Local)
		return ok && ap.Base == l
	}
}

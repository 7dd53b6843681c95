package taint

import (
	"flowdroid/internal/ir"
	"flowdroid/internal/sourcesink"
)

// carrier.go holds the per-call-site memoization and the string-carrier
// alias gate.
//
// TAJ's observation (Tripp et al., PLDI 2009) is that the string classes —
// java.lang.String, StringBuilder, StringBuffer — behave like primitive
// value carriers: their operations move taint between receiver, arguments
// and result in fixed per-method patterns, and none of them stores its
// receiver anywhere a heap analysis could observe. The generic wrapper
// path still spawns a backward alias search for every receiver gen, and
// on builder-heavy code most of those searches are no-ops — the receiver
// was freshly allocated a few statements up and nothing upstream ever
// reads it.
//
// At carrier call sites libraryFlow therefore skips the receiver alias
// search when a bounded backward scan of the enclosing method proves it
// report-neutral (aliasGateRedundant). The gate is the only difference
// from the un-gated reference mode (Config.noAliasGate, reachable only
// from this package's tests), and it fires only when the skipped search
// provably contributes no report-visible facts; the gate-equivalence test
// pins this with byte-identical canonical reports across both modes.

// The carrier classes. Subclasses are not recognized (user code extending
// StringBuilder keeps the full alias search).
const (
	classString        = "java.lang.String"
	classStringBuilder = "java.lang.StringBuilder"
	classStringBuffer  = "java.lang.StringBuffer"
)

func isCarrierClass(name string) bool {
	switch name {
	case classString, classStringBuilder, classStringBuffer:
		return true
	}
	return false
}

// callSite memoizes the static facts of one call statement: the resolved
// wrapper rules, the callees with bodies, the stub-dispatch flag and
// whether it is a carrier site. All fields are immutable after
// construction except the lazily computed sink rule and alias gate.
type callSite struct {
	call   *ir.InvokeExpr
	result *ir.Local
	rules  []WrapperRule
	// callees are the targets the solver descends into, in the ICFG's
	// ir.CompareMethods order.
	callees []*ir.Method
	stub    bool
	// carrier marks a stub site with wrapper rules whose receiver class
	// (or static class, without a receiver) is a carrier class; only
	// carrier sites consult the alias gate.
	carrier bool

	// gate is the alias-gate verdict, computed on the first carrierGate
	// call (gateKnown).
	gateKnown, gate bool

	// sink is the site's sink rule and sinkArgs the argument indices it
	// checks, looked up on the first sinkOf call (sinkKnown); isSink is
	// false when no rule of the query matches.
	sinkKnown, isSink bool
	sink              sourcesink.Sink
	sinkArgs          []int
}

// siteOf returns the memoized record for call statement n, computing it on
// first use.
func (e *engine) siteOf(n ir.Stmt) *callSite {
	ms := e.stateOf(n.Method())
	if ms.sites == nil {
		ms.sites = make([]*callSite, ms.size)
	}
	s := ms.sites[n.Index()]
	if s == nil {
		s = e.buildSite(n)
		ms.sites[n.Index()] = s
	}
	return s
}

func (e *engine) buildSite(n ir.Stmt) *callSite {
	call := ir.CallOf(n)
	s := &callSite{call: call, result: ir.CallResult(n), callees: e.icfg.CalleesOf(n), stub: e.hasStubTarget(n)}
	if e.conf.Wrapper != nil {
		s.rules = e.conf.Wrapper.RulesFor(e.icfg.Prog, call)
	}
	if s.stub && len(s.rules) > 0 {
		cls := call.Ref.Class
		if call.Base != nil && call.Base.Type.IsRef() {
			cls = call.Base.Type.Name
		}
		s.carrier = isCarrierClass(cls)
	}
	return s
}

// sinkOf returns the sink rule at call site n and the argument indices it
// checks, looked up once per site.
func (e *engine) sinkOf(n ir.Stmt, si *callSite) (sourcesink.Sink, []int, bool) {
	if !si.sinkKnown {
		si.sinkKnown = true
		si.sink, si.sinkArgs, si.isSink = e.mgr.SinkAtCall(n)
	}
	return si.sink, si.sinkArgs, si.isSink
}

// carrierGate lazily decides whether the receiver alias search at this
// carrier site can be skipped. The gate only ever fires under the default
// solver shape — aliasing, activation statements and flow-sensitive strong
// updates all on — because the redundancy proof leans on activation
// semantics (an alias fact born from the skipped search could only become
// leak-relevant by crossing its activation statement).
func (e *engine) carrierGate(n ir.Stmt, si *callSite) bool {
	if !si.gateKnown {
		si.gateKnown = true
		si.gate = !e.conf.noAliasGate && e.conf.EnableAliasing && e.conf.EnableActivation && e.conf.FlowSensitive &&
			si.call.Base != nil && e.aliasGateRedundant(n, si.call.Base)
	}
	return si.gate
}

// gateRegionCap bounds the backward-region scan; methods with larger
// upstream regions keep the full alias search.
const gateRegionCap = 128

// aliasGateRedundant proves that the backward alias search a carrier gen
// on `base` at site n would spawn cannot contribute report-visible facts.
// The search walks backward from n and forward-injects the inactive alias
// at assignments it crosses; skipping it is sound when:
//
//   - base is not a parameter or the receiver of the enclosing method (a
//     param-rooted alias maps back into callers via returnFlow);
//   - no call site in the method can transitively re-enter the method
//     (otherwise a fact seeded outside the scanned region could activate
//     early at such a site instead of at n);
//   - every statement backward-reachable from n either terminates the
//     walk at a definition of base whose value originates there (new,
//     constant — the alias chain provably ends) or neither reads base nor
//     captures an alias of it. Receiver-only stub calls on base are
//     allowed when their rules keep receiver taint confined to receiver
//     and result (baseRulesConfined) and the result is unused — then the
//     injected alias can only re-derive facts that already exist.
//
// Facts the injected alias would create downstream of n are inactive with
// activation n and can never flow backward over n, so only the upstream
// region needs scanning; the region is bounded by gateRegionCap.
func (e *engine) aliasGateRedundant(n ir.Stmt, base *ir.Local) bool {
	m := n.Method()
	if m == nil || base == m.This {
		return false
	}
	for _, p := range m.Params {
		if p == base {
			return false
		}
	}
	for _, s := range m.Body() {
		if ir.IsCall(s) && e.canActivate(s, n) {
			return false
		}
	}
	g := &e.gate
	g.reset(len(m.Body()))
	g.mark(n)
	for _, p := range e.predsOf(n) {
		g.push(p)
	}
	for len(g.stack) > 0 {
		if g.marked > gateRegionCap {
			return false
		}
		s := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		kills, safe := e.gateStep(s, base)
		if !safe {
			return false
		}
		if kills {
			continue
		}
		if s.Index() == 0 {
			// Reached the method entry without a killing definition: base
			// flows in from outside the modeled region. (Unreachable for
			// verified IR — non-param locals are defined before use — but
			// stay conservative.)
			return false
		}
		for _, p := range e.predsOf(s) {
			g.push(p)
		}
	}
	return true
}

// gateScan is the alias gate's backward-region walk state, reused across
// gate decisions: a visited bitset over one method's statement indices
// and the walk's stack.
type gateScan struct {
	seen   []uint64
	marked int // statements marked in seen
	stack  []ir.Stmt
}

// reset clears the scan for a method of size statements.
func (g *gateScan) reset(size int) {
	words := (size + 63) / 64
	if cap(g.seen) < words {
		g.seen = make([]uint64, words)
	} else {
		g.seen = g.seen[:words]
		clear(g.seen)
	}
	g.marked = 0
	g.stack = g.stack[:0]
}

// mark records s as visited and reports whether it was new.
func (g *gateScan) mark(s ir.Stmt) bool {
	w, bit := s.Index()/64, uint64(1)<<(s.Index()%64)
	if g.seen[w]&bit != 0 {
		return false
	}
	g.seen[w] |= bit
	g.marked++
	return true
}

// push marks s and queues it for the walk unless it was visited before.
func (g *gateScan) push(s ir.Stmt) {
	if g.mark(s) {
		g.stack = append(g.stack, s)
	}
}

// gateStep examines one backward-region statement. kills reports that the
// statement defines base from a fresh value (the scan need not look above
// it); !safe aborts the gate — the statement reads base, captures an
// alias, or is of a kind the scan does not model.
func (e *engine) gateStep(s ir.Stmt, base *ir.Local) (kills, safe bool) {
	if call := ir.CallOf(s); call != nil {
		result := ir.CallResult(s)
		for _, arg := range call.Args {
			if l, ok := arg.(*ir.Local); ok && l == base {
				return false, false
			}
		}
		if call.Base == base {
			if result != nil || e.hasBodiedCallee(s) || !e.baseRulesConfined(s) {
				return false, false
			}
			return false, true
		}
		if result == base {
			if e.hasBodiedCallee(s) {
				// The backward walk would map the result into the callee.
				return false, false
			}
			// A bodyless call defines base: the alias chain ends here.
			return true, true
		}
		return false, true
	}
	switch st := s.(type) {
	case *ir.AssignStmt:
		if valueReadsLocal(st.RHS, base) {
			return false, false
		}
		switch lhs := st.LHS.(type) {
		case *ir.Local:
			if lhs != base {
				return false, true
			}
			switch st.RHS.(type) {
			case *ir.New, *ir.NewArray, *ir.Const:
				return true, true
			default:
				// Copy/cast/load into base: the alias chain continues into
				// another location — the search is load-bearing.
				return false, false
			}
		case *ir.FieldRef:
			if lhs.Base == base {
				return false, false
			}
			return false, true
		case *ir.ArrayRef:
			if lhs.Base == base || valueReadsLocal(lhs.Index, base) {
				return false, false
			}
			return false, true
		case *ir.StaticFieldRef:
			return false, true
		default:
			return false, false
		}
	case *ir.ReturnStmt:
		if st.Value != nil && valueReadsLocal(st.Value, base) {
			return false, false
		}
		return false, true
	case *ir.IfStmt, *ir.GotoStmt, *ir.NopStmt:
		// Conditions are opaque in this IR; no operands to read.
		return false, true
	default:
		return false, false
	}
}

// valueReadsLocal reports whether evaluating v reads l.
func valueReadsLocal(v ir.Value, l *ir.Local) bool {
	switch v := v.(type) {
	case *ir.Local:
		return v == l
	case *ir.Cast:
		return valueReadsLocal(v.X, l)
	case *ir.FieldRef:
		return v.Base == l
	case *ir.ArrayRef:
		return v.Base == l || valueReadsLocal(v.Index, l)
	case *ir.Binop:
		return valueReadsLocal(v.L, l) || valueReadsLocal(v.R, l)
	case *ir.NewArray:
		return v.Len != nil && valueReadsLocal(v.Len, l)
	}
	return false
}

// hasBodiedCallee reports whether any resolved dispatch target of s has an
// analyzable body.
func (e *engine) hasBodiedCallee(s ir.Stmt) bool {
	for _, c := range e.siteOf(s).callees {
		if c.EntryStmt() != nil {
			return true
		}
	}
	return false
}

// baseRulesConfined reports whether every wrapper rule at s that fires on
// a tainted receiver writes only to the receiver or the result — i.e. a
// receiver-rooted alias flowing over s cannot taint an argument. Unmodeled
// calls are confined too: the native default only fires on tainted
// arguments, never on the receiver alone.
func (e *engine) baseRulesConfined(s ir.Stmt) bool {
	si := e.siteOf(s)
	for _, r := range si.rules {
		if r.From != SlotBase {
			continue
		}
		for _, to := range r.To {
			if to != SlotBase && to != SlotReturn {
				return false
			}
		}
	}
	return true
}

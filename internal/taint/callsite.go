package taint

import (
	"flowdroid/internal/ir"
	"flowdroid/internal/sourcesink"
)

// callSite memoizes the static facts of one call statement: the resolved
// wrapper rules, the callees with bodies and the stub-dispatch flag. All
// fields are immutable after construction except the lazily computed
// sink rule.
type callSite struct {
	call   *ir.InvokeExpr
	result *ir.Local
	rules  []WrapperRule
	// callees are the targets the solver descends into, in the ICFG's
	// ir.CompareMethods order.
	callees []*ir.Method
	stub    bool

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

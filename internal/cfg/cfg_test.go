package cfg

import (
	"context"
	"slices"
	"testing"

	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
	"flowdroid/internal/pta"
)

const loopSrc = `
class A {
  static method m(): void {
  top:
    x = 1
    if * goto done
    y = 2
    goto top
  done:
    return
  }
}
`

func TestBranchesAndLoops(t *testing.T) {
	prog, err := irtext.ParseProgram(loopSrc, "l.ir")
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Class("A").Method("m", 0)
	c := New(m)
	body := m.Body()
	// body: 0 x=1(top) 1 if 2 y=2 3 goto top 4 return(done)
	ifStmt := body[1]
	succ := c.Succs(ifStmt)
	if len(succ) != 2 {
		t.Fatalf("if should have 2 successors, got %d", len(succ))
	}
	if succ[0].Index() != 2 || succ[1].Index() != 4 {
		t.Errorf("if successors = %d,%d, want 2,4", succ[0].Index(), succ[1].Index())
	}
	gotoStmt := body[3]
	succ = c.Succs(gotoStmt)
	if len(succ) != 1 || succ[0].Index() != 0 {
		t.Errorf("goto should jump to index 0, got %v", succ)
	}
	// The loop head has two predecessors: method entry has none, but the
	// back edge targets index 0.
	preds := c.Preds(body[0])
	if len(preds) != 1 || preds[0].Index() != 3 {
		t.Errorf("loop head preds = %v, want the back edge only", preds)
	}
	ret := body[4]
	if len(c.Succs(ret)) != 0 {
		t.Error("return must have no successors")
	}
}

const icfgSrc = `
class A {
  static method callee(x: java.lang.String): java.lang.String {
    return x
  }
  static method main(): void {
    s = "v"
    r = A.callee(s)
    t = r
    return
  }
}
`

func TestICFG(t *testing.T) {
	prog, err := irtext.ParseProgram(icfgSrc, "i.ir")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Class("A").Method("main", 0)
	callee := prog.Class("A").Method("callee", 1)
	res := pta.Build(context.Background(), prog, main)
	g := NewICFG(prog, res.Graph)

	var callSite ir.Stmt
	for _, s := range main.Body() {
		if ir.IsCall(s) {
			callSite = s
		}
	}
	if callSite == nil {
		t.Fatal("no call site found")
	}
	callees := g.CalleesOf(callSite)
	if len(callees) != 1 || callees[0] != callee {
		t.Fatalf("CalleesOf = %v, want [A.callee/1]", callees)
	}
	// The call graph's callers of callee, in reachable order, then body
	// order.
	var callers []ir.Stmt
	for _, m := range g.Graph.Reachable() {
		for _, s := range m.Body() {
			if slices.Contains(g.Graph.CalleesOf(s), callee) {
				callers = append(callers, s)
			}
		}
	}
	if len(callers) != 1 || callers[0] != callSite {
		t.Errorf("CallersOf = %v, want the call site", callers)
	}
	// Return site of the call is the statement after it.
	rs := g.CFGOf(main).Succs(callSite)
	if len(rs) != 1 || rs[0].Index() != callSite.Index()+1 {
		t.Errorf("return site = %v", rs)
	}
	if ret := callee.Body()[0]; !g.IsExit(ret) {
		t.Errorf("%v should be an exit", ret)
	}
}

// TestEdgeListsDoNotAllocate: once a method's CFG is built, Succs and
// Preds hand out the CFG's own lists and allocate nothing.
func TestEdgeListsDoNotAllocate(t *testing.T) {
	prog, err := irtext.ParseProgram(loopSrc, "l.ir")
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Class("A").Method("m", 0)
	g := NewICFG(prog, nil)
	c := g.CFGOf(m)
	body := m.Body()
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, s := range body {
			n += len(c.Succs(s)) + len(c.Preds(s))
		}
	})
	if allocs != 0 {
		t.Errorf("Succs/Preds allocated %v times per run, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("the fixture has no edges")
	}
}

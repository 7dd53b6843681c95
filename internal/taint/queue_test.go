package taint

import (
	"bytes"
	"encoding/json"
	"testing"

	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
)

// mainStmts parses a program and returns Main.main's statements, for
// whitebox tests that drive the engine's propagation layer directly.
func mainStmts(t *testing.T, src string) []ir.Stmt {
	t.Helper()
	prog := framework.NewProgram()
	if err := irtext.ParseInto(prog, stubs+src, "whitebox.ir"); err != nil {
		t.Fatal(err)
	}
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	m := prog.Class("Main").Method("main", 0)
	if m == nil {
		t.Fatal("Main.main/0 not found")
	}
	return m.Body()
}

// TestDuplicateEdgeConsumesNoBudget is the regression test for the budget
// accounting fix: re-propagating a path edge the jump table already holds
// must not charge MaxPropagations, which counts novel insertions only.
func TestDuplicateEdgeConsumesNoBudget(t *testing.T) {
	stmts := mainStmts(t, manyLeaks)
	e := newEngine(nil, nil, Config{APLength: 5, MaxPropagations: 100})

	e.fwPropagate(e.zero, stmts[0], e.zero)
	if got := e.stats.propagations; got != 1 {
		t.Fatalf("first forward edge: propagations = %d, want 1", got)
	}
	e.fwPropagate(e.zero, stmts[0], e.zero) // exact duplicate
	if got := e.stats.propagations; got != 1 {
		t.Errorf("duplicate forward edge charged the budget: propagations = %d, want 1", got)
	}

	e.bwPropagate(e.zero, stmts[0], e.zero)
	e.bwPropagate(e.zero, stmts[0], e.zero) // exact duplicate
	if got := e.stats.propagations; got != 2 {
		t.Errorf("duplicate backward edge charged the budget: propagations = %d, want 2", got)
	}

	if queued := len(e.q.items); queued != 2 {
		t.Errorf("queue holds %d items, want 2 (duplicates must not be re-enqueued)", queued)
	}
}

// TestEdgeKeySeparatesMethodsAndDirections: the jump table is one set per
// analysis, so the same (d1, d2) pair at the same statement index must
// give a distinct edge in each method and in each direction.
func TestEdgeKeySeparatesMethodsAndDirections(t *testing.T) {
	prog := framework.NewProgram()
	src := stubs + `
class Main {
  static method main(): void {
    return
  }
  static method other(): void {
    return
  }
}
`
	if err := irtext.ParseInto(prog, src, "whitebox.ir"); err != nil {
		t.Fatal(err)
	}
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	a := prog.Class("Main").Method("main", 0).Body()[0]
	b := prog.Class("Main").Method("other", 0).Body()[0]
	if a.Index() != b.Index() {
		t.Fatalf("fixture statements at indices %d and %d, want equal", a.Index(), b.Index())
	}
	e := newEngine(nil, nil, Config{APLength: 5})
	e.fwPropagate(e.zero, a, e.zero)
	e.bwPropagate(e.zero, a, e.zero)
	e.fwPropagate(e.zero, b, e.zero)
	e.bwPropagate(e.zero, b, e.zero)
	if got := e.stats.propagations; got != 4 {
		t.Errorf("propagations = %d, want 4 distinct edges", got)
	}
	if fw, bw := e.stats.forwardEdges, e.stats.backwardEdges; fw != 2 || bw != 2 {
		t.Errorf("edges = fw %d/bw %d, want fw 2/bw 2", fw, bw)
	}
	if len(e.edges) != 4 {
		t.Errorf("jump table holds %d edges, want 4", len(e.edges))
	}
}

// TestBudgetStopsOnCrossing: the insertion that reaches MaxPropagations
// records BudgetExhausted and is not enqueued; later insertions are also
// refused, so a budgeted run ends with exactly MaxPropagations
// propagations.
func TestBudgetStopsOnCrossing(t *testing.T) {
	stmts := mainStmts(t, manyLeaks)
	if len(stmts) < 4 {
		t.Fatalf("fixture too small: %d stmts", len(stmts))
	}
	e := newEngine(nil, nil, Config{APLength: 5, MaxPropagations: 3})
	for _, n := range stmts[:4] {
		e.fwPropagate(e.zero, n, e.zero)
	}
	if st := e.q.status; st != BudgetExhausted {
		t.Errorf("status = %v, want BudgetExhausted", st)
	}
	if queued := len(e.q.items); queued != 2 {
		t.Errorf("queue holds %d items, want 2 (the crossing edge must not be enqueued)", queued)
	}
	if got := e.stats.propagations; got != 3 {
		t.Errorf("propagations = %d, want exactly the budget (3)", got)
	}

	full := analyze(t, manyLeaks, DefaultConfig()).Stats.Propagations
	for _, budget := range []int{1, full / 2, full - 1} {
		conf := DefaultConfig()
		conf.MaxPropagations = budget
		r := analyze(t, manyLeaks, conf)
		if r.Status != BudgetExhausted {
			t.Fatalf("budget %d: status %v, want BudgetExhausted", budget, r.Status)
		}
		if r.Stats.Propagations != budget {
			t.Errorf("budget %d: propagations = %d, want exactly the budget", budget, r.Stats.Propagations)
		}
	}
}

// TestLeakLimitReachedStatus: the MaxLeaks cap must be visible in the
// run's status, with exactly the cap's worth of leaks recorded; an
// uncapped run still reports Completed.
func TestLeakLimitReachedStatus(t *testing.T) {
	conf := DefaultConfig()
	conf.MaxLeaks = 2
	r := analyze(t, manyLeaks, conf)
	if r.Status != LeakLimitReached {
		t.Errorf("capped run status = %v, want LeakLimitReached", r.Status)
	}
	if len(r.Leaks) != 2 {
		t.Errorf("capped run recorded %d leaks, want exactly 2", len(r.Leaks))
	}
	full := analyze(t, manyLeaks, DefaultConfig())
	if full.Status != Completed {
		t.Errorf("uncapped run status = %v, want Completed", full.Status)
	}
}

// TestReportOrderIsCanonical: the distinct report must not depend on the
// order leaks were discovered in — reversing the raw leak slice changes
// nothing — and must come out sorted by the canonical key.
func TestReportOrderIsCanonical(t *testing.T) {
	r := analyze(t, manyLeaks, DefaultConfig())
	if len(r.Leaks) < 2 {
		t.Fatalf("fixture found %d leaks, need >= 2", len(r.Leaks))
	}
	base, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i, j := 0, len(r.Leaks)-1; i < j; i, j = i+1, j-1 {
		r.Leaks[i], r.Leaks[j] = r.Leaks[j], r.Leaks[i]
	}
	rev, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, rev) {
		t.Errorf("report depends on leak discovery order:\n%s\nvs\n%s", base, rev)
	}
	pairs := r.DistinctSourceSinkPairs()
	for i := 1; i < len(pairs); i++ {
		if leakOrdOf(pairs[i]).less(leakOrdOf(pairs[i-1])) {
			t.Errorf("pairs[%d] and pairs[%d] out of canonical order", i-1, i)
		}
	}
}

// TestAbortStopsAccounting: once the queue is stopped, further
// propagations must not grow the edge or propagation counters — the
// budget cannot be overrun by work discovered after the abort.
func TestAbortStopsAccounting(t *testing.T) {
	stmts := mainStmts(t, manyLeaks)
	if len(stmts) < 2 {
		t.Fatalf("fixture too small: %d stmts", len(stmts))
	}
	e := newEngine(nil, nil, Config{APLength: 5, MaxPropagations: 100})
	e.fwPropagate(e.zero, stmts[0], e.zero)
	e.q.stop(BudgetExhausted)
	e.fwPropagate(e.zero, stmts[1], e.zero)
	e.bwPropagate(e.zero, stmts[1], e.zero)
	if got := e.stats.propagations; got != 1 {
		t.Errorf("propagations after abort = %d, want 1", got)
	}
	if fw, bw := e.stats.forwardEdges, e.stats.backwardEdges; fw != 1 || bw != 0 {
		t.Errorf("edges after abort = fw %d/bw %d, want fw 1/bw 0", fw, bw)
	}
}

// TestWorkerCountEquivalence pins the one-schedule relation that
// replaced equivalence across solver worker counts: an analysis runs on
// one goroutine in a fixed exploration order, so two runs over every
// edge-case fixture must agree byte for byte — report with path
// witnesses, novel-edge counts and fact-domain size.
func TestWorkerCountEquivalence(t *testing.T) {
	fixtures := map[string]string{
		"listing2":         listing2,
		"staticFlow":       staticFlow,
		"recursiveHeap":    recursiveHeap,
		"deepChain":        deepChain,
		"manyLeaks":        manyLeaks,
		"listInField":      listInField,
		"calleeReads":      calleeReads,
		"arrayThroughCall": arrayThroughCall,
		"killFlow":         killFlow,
		"sinkViaObjectArg": sinkViaObjectArg,
		"twoSources":       twoSources,
	}
	for name, src := range fixtures {
		t.Run(name, func(t *testing.T) {
			var baseJSON []byte
			var baseStats Stats
			for run := 0; run < 2; run++ {
				r := analyze(t, src, DefaultConfig())
				if r.Status != Completed {
					t.Fatalf("run %d: status %v", run, r.Status)
				}
				if r.Stats.Propagations != r.Stats.ForwardEdges+r.Stats.BackwardEdges {
					t.Errorf("run %d: propagations %d != forward %d + backward %d",
						run, r.Stats.Propagations, r.Stats.ForwardEdges, r.Stats.BackwardEdges)
				}
				js, err := json.Marshal(r.Report())
				if err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					baseJSON, baseStats = js, r.Stats
					continue
				}
				if !bytes.Equal(baseJSON, js) {
					t.Errorf("report with witnesses differs between runs:\n%s\nvs\n%s", baseJSON, js)
				}
				if r.Stats != baseStats {
					t.Errorf("stats differ between runs: %+v vs %+v", r.Stats, baseStats)
				}
			}
		})
	}
}

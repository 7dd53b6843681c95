package taint

// Regression tests for Stats.PeakAbstractions exactness. The abstraction
// interner keys on the *SourceRecord pointer, so the counter only equals
// "distinct taint abstractions interned over the run" if the same
// conceptual source always yields the same record pointer — which the
// engine's sourceRecord interner guarantees.

import (
	"testing"

	"flowdroid/internal/sourcesink"
)

// TestSourceRecordInterning: the same (statement, rule) pair must yield
// one pointer no matter how many flow-function evaluations ask for it;
// distinct statements or rules yield distinct records.
func TestSourceRecordInterning(t *testing.T) {
	stmts := mainStmts(t, manyLeaks)
	if len(stmts) < 2 {
		t.Fatalf("fixture too small: %d stmts", len(stmts))
	}
	e := newEngine(nil, nil, Config{APLength: 5})
	src := sourcesink.Source{Class: "Src", Name: "get", Label: "s"}

	r1 := e.sourceRecord(stmts[0], src)
	r2 := e.sourceRecord(stmts[0], src)
	if r1 != r2 {
		t.Error("same (stmt, rule) produced distinct SourceRecords; abstraction identity depends on evaluation count")
	}
	if r1.Stmt != stmts[0] || r1.Source != src {
		t.Errorf("record fields lost: %+v", r1)
	}
	if e.sourceRecord(stmts[1], src) == r1 {
		t.Error("distinct statements share a SourceRecord")
	}
	other := src
	other.Label = "t"
	if e.sourceRecord(stmts[0], other) == r1 {
		t.Error("distinct rules share a SourceRecord")
	}

	// The downstream property the interner exists for: re-evaluating the
	// same source must not inflate the abstraction interner.
	before := e.ai.size()
	a1 := e.ai.get(nil, true, nil, e.sourceRecord(stmts[0], src), nil, stmts[0])
	mid := e.ai.size()
	a2 := e.ai.get(nil, true, nil, e.sourceRecord(stmts[0], src), nil, stmts[0])
	if a1 != a2 {
		t.Error("re-evaluated source produced a distinct abstraction")
	}
	if after := e.ai.size(); after != mid || mid != before+1 {
		t.Errorf("interner sizes %d -> %d -> %d, want exactly one new abstraction", before, mid, after)
	}
}

// TestAbstractionIDsAreDense: the abstraction interner numbers facts
// 0, 1, 2, ... in intern order, the zero fact first, so a path edge's key
// (edgeKey) names its two facts uniquely and in order.
func TestAbstractionIDsAreDense(t *testing.T) {
	e := newEngine(nil, nil, Config{APLength: 5})
	if e.zero.id != 0 {
		t.Errorf("zero fact id = %d, want 0", e.zero.id)
	}
	stmts := mainStmts(t, manyLeaks)
	src := sourcesink.Source{Class: "Src", Name: "get", Label: "s"}
	var facts []*Abstraction
	for _, n := range stmts {
		facts = append(facts, e.ai.get(nil, true, nil, e.sourceRecord(n, src), nil, n))
	}
	seen := make(map[uint32]bool)
	for _, a := range e.ai.abs {
		if int(a.id) >= e.ai.size() || seen[a.id] {
			t.Fatalf("id %d repeats or is not below the interner size %d", a.id, e.ai.size())
		}
		seen[a.id] = true
	}
	keys := make(map[uint64]bool)
	for _, d1 := range facts[:min(len(facts), 8)] {
		for _, d2 := range facts[:min(len(facts), 8)] {
			if k := edgeKey(d1, d2); keys[k] {
				t.Fatalf("edge key %#x repeats", k)
			} else {
				keys[k] = true
			}
		}
	}
}

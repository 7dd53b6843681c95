package cfg_test

import (
	"slices"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/cfg"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/ir"
	"flowdroid/internal/securibench"
)

// TestEdgesMatchBodies checks every method body of the DroidBench and
// SecuriBench suites against a CFG derived directly from the body: a
// goto jumps to the statement carrying its label, an if either falls
// through or jumps there, a return ends the method, and every other
// statement falls through. Predecessor lists must be the exact inverse,
// in body order.
func TestEdgesMatchBodies(t *testing.T) {
	var progs []*ir.Program
	for _, c := range droidbench.Cases() {
		app, err := apk.LoadFiles(c.Files)
		if err != nil {
			t.Fatalf("droidbench %s: %v", c.Name, err)
		}
		progs = append(progs, app.Program)
	}
	for _, c := range securibench.Cases() {
		prog, err := securibench.Program(c)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	methods := 0
	for _, prog := range progs {
		for _, cls := range prog.Classes() {
			for _, m := range cls.Methods() {
				if len(m.Body()) == 0 {
					continue
				}
				methods++
				checkMethod(t, m)
			}
		}
	}
	if methods == 0 {
		t.Fatal("the suites yielded no method bodies")
	}
	t.Logf("checked %d method bodies in %d programs", methods, len(progs))
}

func checkMethod(t *testing.T, m *ir.Method) {
	t.Helper()
	body := m.Body()
	labeled := func(label string) ir.Stmt {
		for _, s := range body {
			if s.Label() == label {
				return s
			}
		}
		t.Fatalf("%v: no statement labeled %q", m, label)
		return nil
	}
	want := make([][]ir.Stmt, len(body))
	wantPreds := make([][]ir.Stmt, len(body))
	for i, s := range body {
		var next ir.Stmt
		if i+1 < len(body) {
			next = body[i+1]
		}
		switch s := s.(type) {
		case *ir.GotoStmt:
			want[i] = []ir.Stmt{labeled(s.Target)}
		case *ir.IfStmt:
			want[i] = []ir.Stmt{next}
			if tgt := labeled(s.Target); tgt != next {
				want[i] = append(want[i], tgt)
			}
		case *ir.ReturnStmt:
		default:
			if next != nil {
				want[i] = []ir.Stmt{next}
			}
		}
		for _, succ := range want[i] {
			wantPreds[succ.Index()] = append(wantPreds[succ.Index()], s)
		}
	}
	c := cfg.New(m)
	for i, s := range body {
		if got := c.Succs(s); !slices.Equal(got, want[i]) {
			t.Errorf("%v: succs of %d (%v) = %v, want %v", m, i, s, got, want[i])
		}
		if got := c.Preds(s); !slices.Equal(got, wantPreds[i]) {
			t.Errorf("%v: preds of %d (%v) = %v, want %v", m, i, s, got, wantPreds[i])
		}
	}
}

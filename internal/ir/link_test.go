package ir_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
	"flowdroid/internal/securibench"
)

// linkState renders what linking decides for every method body of prog:
// each statement's binding to its method and index, each local's type,
// and each field reference's declaration.
func linkState(prog *ir.Program) string {
	var b strings.Builder
	for _, m := range prog.Methods() {
		for _, l := range m.Locals() {
			fmt.Fprintf(&b, "%s %s: %s\n", m, l.Name, l.Type)
		}
		for i, s := range m.Body() {
			if s.Method() != m || s.Index() != i {
				fmt.Fprintf(&b, "%s #%d: unbound\n", m, i)
			}
			a, ok := s.(*ir.AssignStmt)
			if !ok {
				continue
			}
			vals := []ir.Value{a.LHS, a.RHS}
			switch rhs := a.RHS.(type) {
			case *ir.Binop:
				vals = append(vals, rhs.L, rhs.R)
			case *ir.Cast:
				vals = append(vals, rhs.X)
			}
			for _, v := range vals {
				switch v := v.(type) {
				case *ir.FieldRef:
					fmt.Fprintf(&b, "%s #%d: %s -> %p\n", m, i, v.Name, v.Field)
				case *ir.StaticFieldRef:
					fmt.Fprintf(&b, "%s #%d: %s.%s -> %p\n", m, i, v.Class, v.Name, v.Field)
				}
			}
		}
	}
	return b.String()
}

// analyzedPrograms yields the programs the pipeline leaves behind on
// small corpora of every benchmark workload profile, DroidBench,
// SecuriBench and InsecureBank: loaded, with the lifecycle dummy main and
// (on reflective apps) the constprop bridges linked in.
func analyzedPrograms(t *testing.T, yield func(name string, prog *ir.Program)) {
	analyze := func(name string, files map[string]string, opts core.Options) {
		res, err := core.AnalyzeFiles(context.Background(), files, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Status != core.Complete {
			t.Fatalf("%s: status %v", name, res.Status)
		}
		yield(name, res.App.Program)
	}
	sms := core.DefaultOptions()
	sms.Query = core.Query{Sinks: []string{"sms"}}
	for _, w := range []struct {
		profile appgen.Profile
		n       int
		opts    core.Options
	}{
		{appgen.Play, 3, core.DefaultOptions()},
		{appgen.Stress, 1, core.DefaultOptions()},
		{appgen.Reflection, 4, core.DefaultOptions()},
		{appgen.Malware, 3, sms},
	} {
		for _, app := range appgen.GenerateCorpus(w.profile, w.n, 1) {
			analyze(app.Name, app.Files, w.opts)
			if w.profile.Name == appgen.Play.Name {
				updated, _ := appgen.MutateMethods(app.Files, 0.02, 1)
				analyze(app.Name+"-update", updated, w.opts)
			}
		}
	}
	for _, c := range append(droidbench.Cases(), droidbench.ExtraCases()...) {
		analyze("droidbench "+c.Name, c.Files, core.DefaultOptions())
	}
	analyze("insecurebank", insecurebank.Files, core.DefaultOptions())
	for _, c := range securibench.Cases() {
		prog, err := securibench.Program(c)
		if err != nil {
			t.Fatal(err)
		}
		yield("securibench "+c.Name, prog)
	}
}

// TestIncrementalLinkMatchesFullLink: after load, lifecycle and constprop
// have each linked only what they added, linking every class again
// changes no local type, field reference or statement binding.
func TestIncrementalLinkMatchesFullLink(t *testing.T) {
	analyzedPrograms(t, func(name string, prog *ir.Program) {
		before := linkState(prog)
		if err := ir.LinkAll(prog); err != nil {
			t.Fatalf("%s: full link: %v", name, err)
		}
		if after := linkState(prog); after != before {
			t.Errorf("%s: a full link changed the incrementally linked program:\n%s\nvs\n%s", name, after, before)
		}
	})
}

// TestLinkPicksUpNewMethodsAndBodies: a class linked once is linked again
// when it gains a method or one of its methods a new body.
func TestLinkPicksUpNewMethodsAndBodies(t *testing.T) {
	prog, err := irtext.ParseProgram(`
class java.lang.Object {}
class a.Box { field v: a.Box }
class a.A {
  method f(): void {
    x = new a.Box
  }
}`, "a.ir")
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Class("a.A")

	// A method added to the linked class.
	g := ir.NewMethod("g", ir.Void, false)
	x, y := g.Local("x"), g.Local("y")
	g.SetBody([]ir.Stmt{
		&ir.AssignStmt{LHS: x, RHS: &ir.New{Type: ir.Ref("a.Box")}},
		&ir.AssignStmt{LHS: y, RHS: &ir.FieldRef{Base: x, Name: "v"}},
	})
	if err := a.AddMethod(g); err != nil {
		t.Fatal(err)
	}
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	box := prog.Class("a.Box").Field("v")
	if got := g.This.Type; !got.Equal(ir.Ref("a.A")) {
		t.Errorf("added method: this has type %s, want a.A", got)
	}
	if !y.Type.Equal(ir.Ref("a.Box")) {
		t.Errorf("added method: y has type %s, want a.Box", y.Type)
	}
	if fr := g.Body()[1].(*ir.AssignStmt).RHS.(*ir.FieldRef); fr.Field != box {
		t.Errorf("added method: x.v resolved to %v, want %v", fr.Field, box)
	}
	if !finalized(g) {
		t.Errorf("added method: not finalized")
	}

	// A new body for a method of the linked class.
	f := a.Method("f", 0)
	fx, fz := f.Local("x"), f.Local("z")
	f.SetBody([]ir.Stmt{
		&ir.AssignStmt{LHS: fx, RHS: &ir.New{Type: ir.Ref("a.Box")}},
		&ir.AssignStmt{LHS: &ir.FieldRef{Base: fx, Name: "v"}, RHS: fx},
		&ir.AssignStmt{LHS: fz, RHS: fx},
	})
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	if !fz.Type.Equal(ir.Ref("a.Box")) {
		t.Errorf("new body: z has type %s, want a.Box", fz.Type)
	}
	if fr := f.Body()[1].(*ir.AssignStmt).LHS.(*ir.FieldRef); fr.Field != box {
		t.Errorf("new body: x.v resolved to %v, want %v", fr.Field, box)
	}
	if !finalized(f) {
		t.Errorf("new body: not finalized")
	}
}

// finalized reports whether m's body is bound to m and ends in the
// return Finalize appends.
func finalized(m *ir.Method) bool {
	body := m.Body()
	last := body[len(body)-1]
	_, ret := last.(*ir.ReturnStmt)
	return ret && last.Method() == m && last.Index() == len(body)-1
}

// TestAmbiguousFieldErrorIsDeterministic: the unique-name field fallback
// names the two declaring classes in class-name order, every time.
func TestAmbiguousFieldErrorIsDeterministic(t *testing.T) {
	const src = `
class java.lang.Object {}
class a.A { field f: int }
class a.B { field f: int }
class a.C {
  method m(p: int): void {
    y = p.f
  }
}`
	const want = `a.C.m/1: ambiguous field "f" on p (declared in both a.A and a.B)`
	for i := 0; i < 20; i++ {
		_, err := irtext.ParseProgram(src, "a.ir")
		if err == nil || err.Error() != want {
			t.Fatalf("parse %d: error %v, want %s", i, err, want)
		}
	}
}

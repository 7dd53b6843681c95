package callgraph

import (
	"context"
	"slices"
	"testing"

	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
)

const hierarchySrc = `
class Animal {
  method speak(): java.lang.String {
    r = "..."
    return r
  }
}
class Dog extends Animal {
  method speak(): java.lang.String {
    r = "woof"
    return r
  }
}
class Puppy extends Dog {
}
class Cat extends Animal {
  method speak(): java.lang.String {
    r = "meow"
    return r
  }
}
class Main {
  static method viaAnimal(): void {
    local a: Animal
    a = new Dog
    s = a.speak()
    return
  }
  static method viaDog(): void {
    local d: Dog
    d = new Puppy
    s = d.speak()
    return
  }
  static method direct(): void {
    s = Main.helper()
    return
  }
  static method helper(): java.lang.String {
    r = "h"
    return r
  }
}
`

func parse(t *testing.T) *ir.Program {
	t.Helper()
	prog, err := irtext.ParseProgram(hierarchySrc, "h.ir")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func callIn(m *ir.Method) ir.Stmt {
	for _, s := range m.Body() {
		if ir.IsCall(s) {
			return s
		}
	}
	return nil
}

// callersOf lists the call sites whose callees include m, in reachable
// order, then body order.
func callersOf(g *Graph, m *ir.Method) []ir.Stmt {
	var out []ir.Stmt
	for _, r := range g.Reachable() {
		for _, s := range r.Body() {
			if slices.Contains(g.CalleesOf(s), m) {
				out = append(out, s)
			}
		}
	}
	return out
}

func TestCHADispatchOverApex(t *testing.T) {
	prog := parse(t)
	main := prog.Class("Main").Method("viaAnimal", 0)
	g := BuildCHA(context.Background(), prog, main)
	targets := g.CalleesOf(callIn(main))
	names := map[string]bool{}
	for _, m := range targets {
		names[m.Class.Name] = true
	}
	// CHA over declared type Animal: all three implementations.
	for _, want := range []string{"Animal", "Dog", "Cat"} {
		if !names[want] {
			t.Errorf("CHA should include %s.speak, got %v", want, targets)
		}
	}
}

func TestCHAInheritedDispatch(t *testing.T) {
	prog := parse(t)
	main := prog.Class("Main").Method("viaDog", 0)
	g := BuildCHA(context.Background(), prog, main)
	targets := g.CalleesOf(callIn(main))
	// Puppy inherits Dog.speak; the subtree of Dog excludes Cat and the
	// Animal root's version is not reachable through a Dog-typed
	// receiver... except through resolution for Dog itself, which is
	// Dog.speak. Exactly one target.
	if len(targets) != 1 || targets[0].Class.Name != "Dog" {
		t.Errorf("targets = %v, want Dog.speak only", targets)
	}
}

func TestStaticResolution(t *testing.T) {
	prog := parse(t)
	main := prog.Class("Main").Method("direct", 0)
	r := NewResolver(prog)
	call := ir.CallOf(callIn(main))
	ts := r.StaticTargets(call)
	if len(ts) != 1 || ts[0].Name != "helper" {
		t.Errorf("static targets = %v", ts)
	}
	if r.DispatchOn("Puppy", &ir.InvokeExpr{Ref: ir.MethodRef{Name: "speak", NArgs: 0}}).Class.Name != "Dog" {
		t.Error("DispatchOn should resolve through the superclass chain")
	}
}

func TestGraphBookkeeping(t *testing.T) {
	prog := parse(t)
	main := prog.Class("Main").Method("viaAnimal", 0)
	g := BuildCHA(context.Background(), prog, main)
	if !g.IsReachable(main) {
		t.Error("entry must be reachable")
	}
	dog := prog.Class("Dog").Method("speak", 0)
	if !g.IsReachable(dog) {
		t.Error("dispatched target must be reachable")
	}
	helper := prog.Class("Main").Method("helper", 0)
	if g.IsReachable(helper) {
		t.Error("helper is not called from viaAnimal")
	}
	if g.NumEdges() == 0 {
		t.Error("no edges recorded")
	}
	site := callIn(main)
	for _, m := range g.CalleesOf(site) {
		found := false
		for _, c := range callersOf(g, m) {
			if c == site {
				found = true
			}
		}
		if !found {
			t.Errorf("caller/callee maps inconsistent for %v", m)
		}
	}
	// Duplicate edges are ignored.
	before := g.NumEdges()
	g.AddEdge(site, dog)
	if g.NumEdges() != before {
		t.Error("duplicate edge changed the graph")
	}
}

func TestReachesTransitivelySelf(t *testing.T) {
	prog := parse(t)
	main := prog.Class("Main").Method("direct", 0)
	g := BuildCHA(context.Background(), prog, main)
	site := callIn(main)
	helper := prog.Class("Main").Method("helper", 0)
	if !g.ReachesTransitively(site, helper, new(Reach)) {
		t.Error("direct call should reach its target")
	}
	if g.ReachesTransitively(site, main, new(Reach)) {
		t.Error("non-recursive call must not reach the caller")
	}
}

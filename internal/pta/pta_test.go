package pta

import (
	"context"
	"testing"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
)

const dispatchSrc = `
class A {
  method who(): java.lang.String {
    r = "A"
    return r
  }
}
class B extends A {
  method who(): java.lang.String {
    r = "B"
    return r
  }
}
class C extends A {
  method who(): java.lang.String {
    r = "C"
    return r
  }
}
class Main {
  static method main(): void {
    local x: A
    x = new B
    s = x.who()
    return
  }
  static method poly(): void {
    local x: A
    if * goto other
    x = new B
    goto call
  other:
    x = new C
  call:
    s = x.who()
    return
  }
}
`

func findCallTo(m *ir.Method, name string) ir.Stmt {
	for _, s := range m.Body() {
		if c := ir.CallOf(s); c != nil && c.Ref.Name == name {
			return s
		}
	}
	return nil
}

func TestPTADispatchSingle(t *testing.T) {
	prog, err := irtext.ParseProgram(dispatchSrc, "d.ir")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Class("Main").Method("main", 0)
	res := Build(context.Background(), prog, main)
	site := findCallTo(main, "who")
	targets := res.Graph.CalleesOf(site)
	if len(targets) != 1 || targets[0].Class.Name != "B" {
		t.Errorf("PTA should resolve x.who() to exactly B.who, got %v", targets)
	}
	// CHA, by contrast, sees all three implementations.
	cha := callgraph.BuildCHA(context.Background(), prog, main)
	if got := len(cha.CalleesOf(site)); got != 3 {
		t.Errorf("CHA should see 3 targets, got %d", got)
	}
}

func TestPTADispatchPoly(t *testing.T) {
	prog, err := irtext.ParseProgram(dispatchSrc, "d.ir")
	if err != nil {
		t.Fatal(err)
	}
	poly := prog.Class("Main").Method("poly", 0)
	res := Build(context.Background(), prog, poly)
	site := findCallTo(poly, "who")
	targets := res.Graph.CalleesOf(site)
	if len(targets) != 2 {
		t.Fatalf("poly call should have 2 targets (B, C), got %v", targets)
	}
	names := map[string]bool{}
	for _, m := range targets {
		names[m.Class.Name] = true
	}
	if !names["B"] || !names["C"] {
		t.Errorf("targets = %v, want B.who and C.who", targets)
	}
	// The allocation of A never happens, so A.who must be unreachable.
	for _, m := range res.Graph.Reachable() {
		if m.Class.Name == "A" && m.Name == "who" {
			t.Error("A.who should not be reachable")
		}
	}
}

const heapSrc = `
class Box {
  field item: java.lang.Object
  method set(o: java.lang.Object): void {
    this.item = o
  }
  method get(): java.lang.Object {
    r = this.item
    return r
  }
}
class Payload {
  method fire(): void {
    return
  }
}
class Decoy {
  method fire(): void {
    return
  }
}
class Main {
  static method main(): void {
    b1 = new Box
    b2 = new Box
    p = new Payload
    d = new Decoy
    b1.item = p
    b2.item = d
    o = b1.item
    local pp: Payload
    pp = (Payload) o
    pp.fire()
    return
  }
  static method merged(): void {
    b1 = new Box
    b2 = new Box
    p = new Payload
    d = new Decoy
    b1.set(p)
    b2.set(d)
    o = b1.get()
    local pp: Payload
    pp = (Payload) o
    pp.fire()
    return
  }
}
`

func TestPTAHeapFieldSensitivity(t *testing.T) {
	// Field-sensitive and allocation-site-based: direct stores to the
	// item fields of two distinct Box objects stay separate.
	prog, err := irtext.ParseProgram(heapSrc, "h.ir")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Class("Main").Method("main", 0)
	res := Build(context.Background(), prog, main)
	site := findCallTo(main, "fire")
	targets := res.Graph.CalleesOf(site)
	if len(targets) != 1 || targets[0].Class.Name != "Payload" {
		t.Errorf("pp.fire() should dispatch only to Payload.fire, got %v", targets)
	}
	pp := main.LookupLocal("pp")
	objs := res.PointsTo(pp)
	if len(objs) != 1 || objs[0].Class != "Payload" {
		t.Errorf("pts(pp) = %v, want a single Payload", objs)
	}
}

func TestPTAContextInsensitiveMerge(t *testing.T) {
	// When the stores go through a shared setter method, the
	// context-insensitive analysis (like Spark) merges the receivers and
	// sees both payload types; this documents the known imprecision the
	// taint analysis compensates for with its own context sensitivity.
	prog, err := irtext.ParseProgram(heapSrc, "h.ir")
	if err != nil {
		t.Fatal(err)
	}
	merged := prog.Class("Main").Method("merged", 0)
	res := Build(context.Background(), prog, merged)
	pp := merged.LookupLocal("pp")
	objs := res.PointsTo(pp)
	if len(objs) != 2 {
		t.Errorf("pts(pp) through shared setter = %v, want the merged pair", objs)
	}
}

const fallbackSrc = `
class Lib {
  method make(): Gadget;
}
class Gadget {
  method go(): void {
    return
  }
}
class Main {
  static method main(): void {
    l = new Lib
    g = l.make()
    g.go()
    return
  }
}
`

func TestPTAStubFallback(t *testing.T) {
	// Lib.make is a bodyless stub, so g has no allocation sites; the CHA
	// fallback must still resolve g.go() via the declared return type.
	prog, err := irtext.ParseProgram(fallbackSrc, "f.ir")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Class("Main").Method("main", 0)
	res := Build(context.Background(), prog, main)
	site := findCallTo(main, "go")
	targets := res.Graph.CalleesOf(site)
	if len(targets) != 1 || targets[0].Class.Name != "Gadget" {
		t.Errorf("fallback should resolve g.go() to Gadget.go, got %v", targets)
	}
}

func TestReachesTransitively(t *testing.T) {
	prog, err := irtext.ParseProgram(dispatchSrc, "d.ir")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Class("Main").Method("main", 0)
	res := Build(context.Background(), prog, main)
	site := findCallTo(main, "who")
	bWho := prog.Class("B").Method("who", 0)
	aWho := prog.Class("A").Method("who", 0)
	if !res.Graph.ReachesTransitively(site, bWho, new(callgraph.Reach)) {
		t.Error("call site should reach B.who")
	}
	if res.Graph.ReachesTransitively(site, aWho, new(callgraph.Reach)) {
		t.Error("call site should not reach A.who")
	}
}

const staticArraySrc = `
class Thing {
  method go(): void {
    return
  }
}
class Other {
  method go(): void {
    return
  }
}
class Glob {
  static field shared: Thing
}
class Main {
  static method viaStatic(): void {
    t = new Thing
    Glob.shared = t
    u = Glob.shared
    u.go()
    return
  }
  static method viaArray(): void {
    arr = newarray Thing
    t = new Thing
    arr[0] = t
    u = arr[1]
    u.go()
    return
  }
}
`

func TestPTAStaticFields(t *testing.T) {
	prog, err := irtext.ParseProgram(staticArraySrc, "s.ir")
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Class("Main").Method("viaStatic", 0)
	res := Build(context.Background(), prog, m)
	targets := res.Graph.CalleesOf(findCallTo(m, "go"))
	if len(targets) != 1 || targets[0].Class.Name != "Thing" {
		t.Errorf("static-field flow should resolve u.go() to Thing only, got %v", targets)
	}
}

func TestPTAArrayContents(t *testing.T) {
	// Array cells are a single abstract location: a read at any index
	// sees objects stored at any index.
	prog, err := irtext.ParseProgram(staticArraySrc, "s.ir")
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Class("Main").Method("viaArray", 0)
	res := Build(context.Background(), prog, m)
	targets := res.Graph.CalleesOf(findCallTo(m, "go"))
	if len(targets) != 1 || targets[0].Class.Name != "Thing" {
		t.Errorf("array flow should resolve u.go() to Thing, got %v", targets)
	}
	u := m.LookupLocal("u")
	if objs := res.PointsTo(u); len(objs) != 1 || !res.PointsTo(m.LookupLocal("arr"))[0].Array {
		t.Errorf("pts(u) = %v; arr should be an array object", objs)
	}
}

package constprop

import (
	"context"
	"testing"

	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
	"flowdroid/internal/scene"
)

func parse(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog := framework.NewProgram()
	if err := irtext.ParseInto(prog, src, "test.ir"); err != nil {
		t.Fatal(err)
	}
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	return prog
}

func analyzeSrc(t *testing.T, src string) (*ir.Program, *Result) {
	t.Helper()
	prog := parse(t, src)
	res := Analyze(context.Background(), scene.New(prog))
	if res.Truncated {
		t.Fatal("analysis truncated without a deadline")
	}
	return prog, res
}

func TestConstantForNameInvokeResolves(t *testing.T) {
	prog, res := analyzeSrc(t, `
class app.Target {
  method init(): void { return }
  method leak(s: java.lang.String): void { return }
}
class app.Main {
  static method run(secret: java.lang.String): void {
    clz = java.lang.Class.forName("app.Target")
    mth = clz.getMethod("leak")
    tgt = new app.Target()
    o = mth.invoke(tgt, secret)
    return
  }
}
`)
	if got := len(res.Report.Unresolved); got != 0 {
		t.Fatalf("unresolved sites = %d (%+v), want 0", got, res.Report.Unresolved)
	}
	// forName, getMethod and invoke each count as a resolved site.
	if res.Report.ResolvedSites != 3 {
		t.Fatalf("resolved sites = %d, want 3", res.Report.ResolvedSites)
	}
	edges, err := res.Materialize(prog)
	if err != nil {
		t.Fatal(err)
	}
	var bridges []*ir.Method
	for _, ms := range edges {
		bridges = append(bridges, ms...)
	}
	if len(bridges) != 1 {
		t.Fatalf("bridges = %d, want 1", len(bridges))
	}
	b := bridges[0]
	if b.Class.Name != BridgesClass || !b.Class.Synthetic {
		t.Fatalf("bridge lives in %q (synthetic=%v)", b.Class.Name, b.Class.Synthetic)
	}
	// Bridge arity mirrors the invoke site: receiver + one argument.
	if len(b.Params) != 2 {
		t.Fatalf("bridge params = %d, want 2", len(b.Params))
	}
	if b.Params[0].Type.Name != "app.Target" {
		t.Fatalf("bridge receiver type = %s, want app.Target", b.Params[0].Type.Name)
	}
	// The bridge body performs the real virtual call.
	var sawCall bool
	for _, s := range b.Body() {
		if c := ir.CallOf(s); c != nil && c.Ref.Name == "leak" {
			sawCall = true
		}
	}
	if !sawCall {
		t.Fatal("bridge body has no call to the resolved target")
	}
}

func TestStringBuilderLaunderedNameResolves(t *testing.T) {
	_, res := analyzeSrc(t, `
class app.Target {
  method init(): void { return }
  method leak(s: java.lang.String): void { return }
}
class app.Main {
  static method run(secret: java.lang.String): void {
    sb = new java.lang.StringBuilder()
    sb2 = sb.append("app.")
    sb3 = sb2.append("Target")
    cn = sb3.toString()
    clz = java.lang.Class.forName(cn)
    mth = clz.getMethod("leak")
    tgt = new app.Target()
    o = mth.invoke(tgt, secret)
    return
  }
}
`)
	if got := len(res.Report.Unresolved); got != 0 {
		t.Fatalf("unresolved sites = %d (%+v), want 0", got, res.Report.Unresolved)
	}
	if res.Report.ResolvedSites != 3 {
		t.Fatalf("resolved sites = %d, want 3", res.Report.ResolvedSites)
	}
}

func TestInterproceduralConstantArgument(t *testing.T) {
	_, res := analyzeSrc(t, `
class app.Target {
  method init(): void { return }
  method leak(s: java.lang.String): void { return }
}
class app.Helper {
  static method load(name: java.lang.String): java.lang.Class {
    c = java.lang.Class.forName(name)
    return c
  }
}
class app.Main {
  static method run(secret: java.lang.String): void {
    clz = app.Helper.load("app.Target")
    mth = clz.getMethod("leak")
    tgt = new app.Target()
    o = mth.invoke(tgt, secret)
    return
  }
}
`)
	if got := len(res.Report.Unresolved); got != 0 {
		t.Fatalf("unresolved sites = %d (%+v), want 0", got, res.Report.Unresolved)
	}
	if res.Report.ResolvedSites != 3 {
		t.Fatalf("resolved sites = %d, want 3", res.Report.ResolvedSites)
	}
}

func TestDynamicNameReportedUnresolved(t *testing.T) {
	_, res := analyzeSrc(t, `
class app.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle): void {
    i = this.getIntent()
    name = i.getStringExtra("cls")
    clz = java.lang.Class.forName(name)
    o = clz.newInstance()
    return
  }
}
`)
	if len(res.Report.Unresolved) != 2 {
		t.Fatalf("unresolved = %+v, want forName and newInstance entries", res.Report.Unresolved)
	}
	for _, u := range res.Report.Unresolved {
		if u.Reason != NonConstantString {
			t.Fatalf("reason = %q, want %q", u.Reason, NonConstantString)
		}
		if u.Method == "" || u.Call == "" {
			t.Fatalf("incomplete site record: %+v", u)
		}
	}
}

func TestUnknownClassReported(t *testing.T) {
	_, res := analyzeSrc(t, `
class app.Main {
  static method run(): void {
    clz = java.lang.Class.forName("no.such.Class")
    return
  }
}
`)
	if len(res.Report.Unresolved) != 1 || res.Report.Unresolved[0].Reason != UnknownClass {
		t.Fatalf("unresolved = %+v, want one unknown-class entry", res.Report.Unresolved)
	}
}

func TestClassLoaderIsDynamicLoading(t *testing.T) {
	_, res := analyzeSrc(t, `
class app.Main {
  static method run(o: java.lang.Object): void {
    c = o.getClass()
    l = c.getClassLoader()
    clz = l.loadClass("app.Whatever")
    return
  }
}
`)
	if len(res.Report.Unresolved) != 1 || res.Report.Unresolved[0].Reason != DynamicLoading {
		t.Fatalf("unresolved = %+v, want one dynamic-loading entry", res.Report.Unresolved)
	}
}

func TestSingleConstantFieldWriterResolves(t *testing.T) {
	_, res := analyzeSrc(t, `
class app.Target {
  method init(): void { return }
  method leak(s: java.lang.String): void { return }
}
class app.Main {
  static field name: java.lang.String
  static method setup(): void {
    app.Main.name = "app.Target"
    return
  }
  static method run(secret: java.lang.String): void {
    n = app.Main.name
    clz = java.lang.Class.forName(n)
    mth = clz.getMethod("leak")
    tgt = new app.Target()
    o = mth.invoke(tgt, secret)
    return
  }
}
`)
	if got := len(res.Report.Unresolved); got != 0 {
		t.Fatalf("unresolved sites = %d (%+v), want 0", got, res.Report.Unresolved)
	}
	if res.Report.ResolvedSites != 3 {
		t.Fatalf("resolved sites = %d, want 3", res.Report.ResolvedSites)
	}
}

func TestBranchJoinKeepsBoundedSet(t *testing.T) {
	_, res := analyzeSrc(t, `
class app.A { method init(): void { return } method go(): void { return } }
class app.B { method init(): void { return } method go(): void { return } }
class app.Main {
  static method run(): void {
    local n: java.lang.String
    if * goto other
    n = "app.A"
    goto load
  other:
    n = "app.B"
  load:
    clz = java.lang.Class.forName(n)
    mth = clz.getMethod("go")
    return
  }
}
`)
	if got := len(res.Report.Unresolved); got != 0 {
		t.Fatalf("unresolved sites = %d (%+v), want 0", got, res.Report.Unresolved)
	}
	if res.Report.ResolvedSites != 2 {
		t.Fatalf("resolved sites = %d, want 2 (forName + getMethod)", res.Report.ResolvedSites)
	}
}

func TestMaterializeIdempotentOnRerun(t *testing.T) {
	src := `
class app.Target {
  method init(): void { return }
  method leak(s: java.lang.String): void { return }
}
class app.Main {
  static method run(secret: java.lang.String): void {
    clz = java.lang.Class.forName("app.Target")
    mth = clz.getMethod("leak")
    tgt = new app.Target()
    o = mth.invoke(tgt, secret)
    return
  }
}
`
	prog, res := analyzeSrc(t, src)
	e1, err := res.Materialize(prog)
	if err != nil {
		t.Fatal(err)
	}
	// A second Analyze+Materialize on the mutated program (as a second
	// AnalyzeApp on the same loaded app does) must reuse the bridges.
	res2 := Analyze(context.Background(), scene.New(prog))
	e2, err := res2.Materialize(prog)
	if err != nil {
		t.Fatal(err)
	}
	count := func(m map[ir.Stmt][]*ir.Method) int {
		n := 0
		for _, ms := range m {
			n += len(ms)
		}
		return n
	}
	if count(e1) != 1 || count(e2) != 1 {
		t.Fatalf("edge counts = %d, %d, want 1, 1", count(e1), count(e2))
	}
	if len(prog.Class(BridgesClass).Methods()) != 1 {
		t.Fatalf("bridges class has %d methods, want 1 (no duplicates)", len(prog.Class(BridgesClass).Methods()))
	}
}

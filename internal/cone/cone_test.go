package cone_test

import (
	"context"
	"slices"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/callgraph"
	"flowdroid/internal/cone"
	"flowdroid/internal/constprop"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
	"flowdroid/internal/scene"
	"flowdroid/internal/securibench"
	"flowdroid/internal/sourcesink"
)

// The fixture separates the three closures: reach() hits the queried
// sink (entry() calls it), fetch() only touches a source, store() only
// writes the static heap, otherSink() hits a sink the query did not
// select, and idle() does none of it.
const coneSrc = `
class q.Api {
  static method get(): java.lang.String;
  static method put(s: java.lang.String): void;
  static method put2(s: java.lang.String): void;
}

class q.App {
  static field g: java.lang.String

  method entry(): void {
    this.reach()
    this.fetch()
    return
  }
  method reach(): void {
    s = "x"
    q.Api.put(s)
    return
  }
  method fetch(): void {
    s = q.Api.get()
    return
  }
  method store(): void {
    s = "y"
    q.App.g = s
    return
  }
  method otherSink(): void {
    s = "z"
    q.Api.put2(s)
    return
  }
  method idle(): void {
    return
  }
}
`

const coneRules = `
source <q.Api: get/0> -> return label secret
sink <q.Api: put/1> -> arg0 label out
sink <q.Api: put2/1> -> arg0 label other
`

func buildCone(t *testing.T, selectors []string) (*cone.Cone, *ir.Program) {
	t.Helper()
	prog, err := irtext.ParseProgram(coneSrc, "cone.ir")
	if err != nil {
		t.Fatal(err)
	}
	sc := scene.New(prog)
	mgr, err := sourcesink.Parse(sc, coneRules)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.RestrictSinks(selectors); err != nil {
		t.Fatal(err)
	}
	return cone.BuildWithExtra(context.Background(), sc, mgr, nil), prog
}

func TestConeClosures(t *testing.T) {
	c, prog := buildCone(t, []string{"out"})
	app := prog.Class("q.App")
	m := func(name string) *ir.Method {
		mth := app.Method(name, 0)
		if mth == nil {
			t.Fatalf("fixture method %s missing", name)
		}
		return mth
	}

	// The cone counts only what it examined: ask about every method
	// first.
	for _, mth := range app.Methods() {
		c.Relevant(mth)
	}
	if c.SinkStmts != 1 {
		t.Errorf("SinkStmts = %d, want 1 (put2 is not queried)", c.SinkStmts)
	}
	if c.Methods() != 2 {
		t.Errorf("Methods() = %d, want 2 (reach + entry)", c.Methods())
	}

	// inCone: only the sink-reaching call chain.
	for name, want := range map[string]bool{
		"reach": true, "entry": true,
		"fetch": false, "store": false, "otherSink": false, "idle": false,
	} {
		if got := c.Reaches(m(name)); got != want {
			t.Errorf("Reaches(%s) = %v, want %v", name, got, want)
		}
	}

	// escape adds static-field writers: the skippability set.
	for name, want := range map[string]bool{
		"reach": true, "entry": true, "store": true,
		"fetch": false, "otherSink": false, "idle": false,
	} {
		if got := c.Escapes(m(name)); got != want {
			t.Errorf("Escapes(%s) = %v, want %v", name, got, want)
		}
	}

	// relevant additionally adds potential sources: the zero-fact
	// pruning set.
	for name, want := range map[string]bool{
		"reach": true, "entry": true, "store": true, "fetch": true,
		"otherSink": false, "idle": false,
	} {
		if got := c.Relevant(m(name)); got != want {
			t.Errorf("Relevant(%s) = %v, want %v", name, got, want)
		}
	}

	if !c.ComponentSkippable([]*ir.Method{m("idle"), m("otherSink")}) {
		t.Error("component with only idle/unqueried-sink entries should be skippable")
	}
	if c.ComponentSkippable([]*ir.Method{m("idle"), m("entry")}) {
		t.Error("component with a sink-reaching entry must not be skippable")
	}
	if c.ComponentSkippable([]*ir.Method{m("store")}) {
		t.Error("component writing the static heap must not be skippable")
	}
	if !c.ComponentSkippable(nil) {
		t.Error("component with no entry points is trivially skippable")
	}
}

// cycleSrc holds call cycles, which the cone answers per strongly
// connected component: a sink only in c reaches every member of
// {a, b, c} and h, which calls into it; a source only in f reaches the
// cycle {d, e} above it; a static write closes the cycle {w1, w2}; g
// calls only itself.
const cycleSrc = `
class q.Api {
  static method get(): java.lang.String;
  static method put(s: java.lang.String): void;
  static method put2(s: java.lang.String): void;
}

class q.Cyc {
  static field g: java.lang.String

  method a(): void {
    this.b()
    return
  }
  method b(): void {
    this.c()
    this.a()
    return
  }
  method c(): void {
    this.b()
    s = "x"
    q.Api.put(s)
    return
  }
  method d(): void {
    this.e()
    return
  }
  method e(): void {
    this.d()
    this.f()
    return
  }
  method f(): void {
    s = q.Api.get()
    return
  }
  method g(): void {
    this.g()
    return
  }
  method h(): void {
    this.h()
    this.d()
    this.a()
    return
  }
  method w1(): void {
    this.w2()
    return
  }
  method w2(): void {
    this.w1()
    s = "y"
    q.Cyc.g = s
    return
  }
}
`

// oracle is the whole-program backward pass the cone's answers must
// equal: it reads every body once for sink statements, potential
// sources, static-field writes and reverse call edges (CHA plus extra),
// then closes backward from the three root sets.
type oracle struct {
	inCone, escape, relevant map[*ir.Method]bool
	sinkStmts                int
}

func newOracle(h ir.Hierarchy, mgr *sourcesink.Manager, extra map[ir.Stmt][]*ir.Method) *oracle {
	res := callgraph.ResolverFor(h)
	o := &oracle{
		inCone:   make(map[*ir.Method]bool),
		escape:   make(map[*ir.Method]bool),
		relevant: make(map[*ir.Method]bool),
	}
	callersOf := make(map[*ir.Method][]*ir.Method)
	var sinkRoots, writeRoots, srcRoots []*ir.Method
	for _, cls := range h.Classes() {
		for _, m := range cls.Methods() {
			if m.Abstract() {
				continue
			}
			var isSink, isWrite bool
			isSrc := len(mgr.ParamSources(m)) > 0
			for _, s := range m.Body() {
				if a, ok := s.(*ir.AssignStmt); ok {
					if _, static := a.LHS.(*ir.StaticFieldRef); static {
						isWrite = true
					}
				}
				call := ir.CallOf(s)
				if call == nil {
					continue
				}
				if _, _, ok := mgr.SinkAtCall(s); ok {
					isSink = true
					o.sinkStmts++
				}
				if mgr.PotentialSourceAt(s) {
					isSrc = true
				}
				for _, ts := range [][]*ir.Method{res.TargetsOf(call), extra[s]} {
					for _, t := range ts {
						if !t.Abstract() {
							callersOf[t] = append(callersOf[t], m)
						}
					}
				}
			}
			if isSink {
				sinkRoots = append(sinkRoots, m)
			}
			if isWrite {
				writeRoots = append(writeRoots, m)
			}
			if isSrc {
				srcRoots = append(srcRoots, m)
			}
		}
	}
	closeOver := func(set map[*ir.Method]bool, roots []*ir.Method) {
		stack := slices.Clone(roots)
		for _, r := range roots {
			set[r] = true
		}
		for len(stack) > 0 {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, caller := range callersOf[m] {
				if !set[caller] {
					set[caller] = true
					stack = append(stack, caller)
				}
			}
		}
	}
	closeOver(o.inCone, sinkRoots)
	for _, set := range []map[*ir.Method]bool{o.escape, o.relevant} {
		closeOver(set, sinkRoots)
		closeOver(set, writeRoots)
	}
	closeOver(o.relevant, srcRoots)
	return o
}

// TestConeMatchesOracle: on every shipped app and program, with
// constprop's reflective edges, under each sink label as the query, the
// on-demand cone answers Reaches, Escapes and Relevant for every method
// as the whole-program backward pass does — asked in declaration order
// and, from a fresh cone, in reverse — and once every method was asked,
// its counters equal the oracle's.
func TestConeMatchesOracle(t *testing.T) {
	ctx := context.Background()
	type input struct {
		name string
		// load returns the program, its scene and its manager.
		load func() (*ir.Program, *scene.Scene, *sourcesink.Manager, error)
	}
	app := func(name string, files map[string]string) input {
		return input{name, func() (*ir.Program, *scene.Scene, *sourcesink.Manager, error) {
			a, err := apk.LoadFiles(files)
			if err != nil {
				return nil, nil, nil, err
			}
			sc := scene.New(a.Program)
			mgr := sourcesink.Default(sc)
			mgr.AttachApp(a)
			return a.Program, sc, mgr, nil
		}}
	}
	inputs := []input{{"cycles", func() (*ir.Program, *scene.Scene, *sourcesink.Manager, error) {
		prog, err := irtext.ParseProgram(cycleSrc, "cycles.ir")
		if err != nil {
			return nil, nil, nil, err
		}
		sc := scene.New(prog)
		mgr, err := sourcesink.Parse(sc, coneRules)
		return prog, sc, mgr, err
	}}, app("insecurebank", insecurebank.Files)}
	for _, c := range append(droidbench.Cases(), droidbench.ExtraCases()...) {
		inputs = append(inputs, app("droidbench/"+c.Name, c.Files))
	}
	for _, p := range []appgen.Profile{appgen.Malware, appgen.Reflection} {
		for _, a := range appgen.GenerateCorpus(p, 5, 1) {
			inputs = append(inputs, app(a.Name, a.Files))
		}
	}
	for _, c := range securibench.Cases() {
		inputs = append(inputs, input{"securibench/" + c.Name, func() (*ir.Program, *scene.Scene, *sourcesink.Manager, error) {
			prog, err := securibench.Program(c)
			if err != nil {
				return nil, nil, nil, err
			}
			sc := scene.New(prog)
			mgr, err := sourcesink.Parse(sc, securibench.Rules())
			return prog, sc, mgr, err
		}})
	}

	queries := 0
	for _, in := range inputs {
		prog, sc, mgr, err := in.load()
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		edges, err := constprop.Analyze(ctx, sc).Materialize(prog)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if len(edges) > 0 {
			sc.Refresh()
		}
		var methods []*ir.Method
		for _, cls := range sc.Classes() {
			methods = append(methods, cls.Methods()...)
		}
		var labels []string
		for _, snk := range mgr.Sinks() {
			if snk.Label != "" && !slices.Contains(labels, snk.Label) {
				labels = append(labels, snk.Label)
			}
		}
		for _, label := range labels {
			if err := mgr.RestrictSinks([]string{label}); err != nil {
				t.Fatal(err)
			}
			queries++
			forward := cone.BuildWithExtra(ctx, sc, mgr, edges)
			backward := cone.BuildWithExtra(ctx, sc, mgr, edges)
			for i := range methods {
				forward.Relevant(methods[i])
				backward.Relevant(methods[len(methods)-1-i])
			}
			o := newOracle(sc, mgr, edges)
			for _, c := range []*cone.Cone{forward, backward} {
				for _, m := range methods {
					if c.Reaches(m) != o.inCone[m] || c.Escapes(m) != o.escape[m] || c.Relevant(m) != o.relevant[m] {
						t.Fatalf("%s query %s: %s answers reaches/escapes/relevant %t/%t/%t, oracle %t/%t/%t",
							in.name, label, m, c.Reaches(m), c.Escapes(m), c.Relevant(m),
							o.inCone[m], o.escape[m], o.relevant[m])
					}
				}
				if c.Methods() != len(o.inCone) || c.SinkStmts != o.sinkStmts {
					t.Fatalf("%s query %s: %d methods, %d sink statements; oracle %d, %d",
						in.name, label, c.Methods(), c.SinkStmts, len(o.inCone), o.sinkStmts)
				}
			}
		}
	}
	t.Logf("%d inputs, %d queries", len(inputs), queries)
}

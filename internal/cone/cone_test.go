package cone_test

import (
	"context"
	"testing"

	"flowdroid/internal/cone"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
	"flowdroid/internal/scene"
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

// TestConeCancelledContextIsPartial documents the contract the pipeline
// relies on: a cancelled BuildWithExtra returns a (possibly empty) partial
// cone instead of blocking, and the caller must discard it.
func TestConeCancelledContextIsPartial(t *testing.T) {
	prog, err := irtext.ParseProgram(coneSrc, "cone.ir")
	if err != nil {
		t.Fatal(err)
	}
	sc := scene.New(prog)
	mgr, err := sourcesink.Parse(sc, coneRules)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.RestrictSinks([]string{"out"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c := cone.BuildWithExtra(ctx, sc, mgr, nil); c.Methods() != 0 {
		t.Errorf("cancelled BuildWithExtra closed over %d methods, want 0", c.Methods())
	}
}

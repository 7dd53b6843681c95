package scene_test

import (
	"fmt"
	"math/rand"
	"testing"

	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
	"flowdroid/internal/scene"
)

func parse(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := irtext.ParseProgram(src, "scene_test.ir")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// hierarchySrc exercises interface-inherited default methods, diamond
// interface inheritance, and a superclass name that is never declared.
const hierarchySrc = `
class java.lang.Object {
}
interface Clickable {
  method onClick(v: java.lang.Object): void {
    return
  }
}
interface Pressable extends Clickable {
}
interface Touchable extends Clickable {
}
class Button implements Pressable, Touchable {
}
class ImageButton extends Button {
}
class Phantom extends missing.Superclass {
}
`

// TestDefaultMethodViaInterface: a concrete class that declares nothing
// itself resolves an inherited default method through its transitive
// interfaces, exactly as the raw program does.
func TestDefaultMethodViaInterface(t *testing.T) {
	prog := parse(t, hierarchySrc)
	sc := scene.New(prog)

	want := prog.Class("Clickable").Method("onClick", 1)
	if want == nil {
		t.Fatal("fixture broken: Clickable.onClick missing")
	}
	for _, cls := range []string{"Button", "Pressable", "Touchable"} {
		if got := sc.ResolveMethod(cls, "onClick", 1); got != want {
			t.Errorf("scene ResolveMethod(%s, onClick) = %v, want Clickable's default", cls, got)
		}
		if got := prog.ResolveMethod(cls, "onClick", 1); got != want {
			t.Errorf("program ResolveMethod(%s, onClick) = %v, want Clickable's default", cls, got)
		}
	}
	// The interface fallback consults only the queried class's own
	// interface list, not interfaces inherited through a superclass; the
	// scene must reproduce that limitation, not silently fix it.
	if got, want := sc.ResolveMethod("ImageButton", "onClick", 1),
		prog.ResolveMethod("ImageButton", "onClick", 1); got != want {
		t.Errorf("scene and program disagree on subclass-of-implementor: %v vs %v", got, want)
	}
}

// TestDiamondInterfaceInheritance: Button reaches Clickable along two
// interface paths; the subtype relation holds and the subtype listing
// contains each class exactly once.
func TestDiamondInterfaceInheritance(t *testing.T) {
	prog := parse(t, hierarchySrc)
	sc := scene.New(prog)

	if !sc.SubtypeOf("Button", "Clickable") || !sc.SubtypeOf("ImageButton", "Clickable") {
		t.Error("diamond path to Clickable not reflected in SubtypeOf")
	}
	subs := sc.SubtypesOf("Clickable")
	want := []string{"Button", "Clickable", "ImageButton", "Pressable", "Touchable"}
	if fmt.Sprint(subs) != fmt.Sprint(want) {
		t.Errorf("SubtypesOf(Clickable) = %v, want %v (each subtype once, sorted)", subs, want)
	}
}

// TestMissingSuperclassName: an undeclared superclass is still a valid
// supertype target, terminates resolution walks cleanly, and never shows
// itself in subtype listings (only declared classes do).
func TestMissingSuperclassName(t *testing.T) {
	prog := parse(t, hierarchySrc)
	sc := scene.New(prog)

	if !sc.SubtypeOf("Phantom", "missing.Superclass") {
		t.Error("SubtypeOf(Phantom, missing.Superclass) = false, want true")
	}
	if sc.SubtypeOf("Button", "missing.Superclass") {
		t.Error("unrelated class reported as subtype of the missing name")
	}
	subs := sc.SubtypesOf("missing.Superclass")
	if fmt.Sprint(subs) != fmt.Sprint([]string{"Phantom"}) {
		t.Errorf("SubtypesOf(missing.Superclass) = %v, want [Phantom]", subs)
	}
	if m := sc.ResolveMethod("Phantom", "anything", 0); m != nil {
		t.Errorf("resolution through a missing superclass returned %v, want nil", m)
	}
	// Identical answers from the uncached program.
	if !prog.SubtypeOf("Phantom", "missing.Superclass") {
		t.Error("program disagrees on SubtypeOf(Phantom, missing.Superclass)")
	}
	if fmt.Sprint(prog.SubtypesOf("missing.Superclass")) != fmt.Sprint(subs) {
		t.Error("program and scene disagree on SubtypesOf(missing.Superclass)")
	}
}

// TestCyclicHierarchyTolerated: a malformed class graph with a superclass
// cycle must not hang Scene construction or queries, and must agree with
// the program's cycle-guarded walk.
func TestCyclicHierarchyTolerated(t *testing.T) {
	prog := ir.NewProgram()
	for _, c := range []*ir.Class{
		ir.NewClass("A", "B"),
		ir.NewClass("B", "A"),
		ir.NewClass("C", "A"),
	} {
		if err := prog.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	sc := scene.New(prog)
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"A", "B", true}, {"B", "A", true}, {"C", "B", true},
		{"A", "C", false}, {"A", "A", true},
	}
	for _, c := range cases {
		if got := sc.SubtypeOf(c.sub, c.super); got != c.want {
			t.Errorf("scene SubtypeOf(%s, %s) = %v, want %v", c.sub, c.super, got, c.want)
		}
		if got := prog.SubtypeOf(c.sub, c.super); got != c.want {
			t.Errorf("program SubtypeOf(%s, %s) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

// TestResolutionCacheConsistencyAfterRefresh: cached answers — including
// negative ones — are dropped by Refresh, so resolution reflects classes
// and members added after the scene was built.
func TestResolutionCacheConsistencyAfterRefresh(t *testing.T) {
	prog := parse(t, hierarchySrc)
	sc := scene.New(prog)

	// Prime a positive and a negative cache entry.
	if sc.ResolveMethod("Button", "onClick", 1) == nil {
		t.Fatal("Button.onClick did not resolve")
	}
	if sc.ResolveMethod("Widget", "onClick", 1) != nil {
		t.Fatal("undeclared Widget resolved before it exists")
	}
	if !sc.SubtypeOf("Button", "Clickable") || sc.SubtypeOf("Widget", "Clickable") {
		t.Fatal("baseline subtype answers wrong")
	}

	// Grow the program: Widget implements Clickable with its own override.
	w := ir.NewClass("Widget", "java.lang.Object")
	w.Interfaces = []string{"Clickable"}
	own := ir.NewMethod("onClick", ir.Void, false)
	own.Params = []*ir.Local{{Name: "v", Type: ir.Ref("java.lang.Object")}}
	if err := w.AddMethod(own); err != nil {
		t.Fatal(err)
	}
	if err := prog.AddClass(w); err != nil {
		t.Fatal(err)
	}
	sc.Refresh()

	if got := sc.ResolveMethod("Widget", "onClick", 1); got != own {
		t.Errorf("after Refresh, ResolveMethod(Widget, onClick) = %v, want the new override", got)
	}
	if !sc.SubtypeOf("Widget", "Clickable") {
		t.Error("after Refresh, Widget is not a Clickable subtype")
	}
	subs := sc.SubtypesOf("Clickable")
	found := false
	for _, s := range subs {
		if s == "Widget" {
			found = true
		}
	}
	if !found {
		t.Errorf("after Refresh, SubtypesOf(Clickable) = %v, missing Widget", subs)
	}
	// Memoization still sound: repeated queries return the same pointer.
	if sc.ResolveMethod("Widget", "onClick", 1) != own {
		t.Error("repeated resolution changed its answer")
	}
}

// TestSceneMatchesProgramOnRandomHierarchies cross-checks every hierarchy
// query against the uncached program and a freshly built scene on
// randomly generated class DAGs with interfaces, dangling supertype
// names, and scattered members. The scene is built over a random prefix
// of the classes; the rest arrive in random batches, each followed by
// Refresh. The late classes include some that earlier classes named as
// dangling supertypes, which forces Refresh's full rebuild. In half the
// trials the prefix is a closed class set, sealed and cloned the way the
// framework base is, so the scene extends the sealed program's index.
func TestSceneMatchesProgramOnRandomHierarchies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(12)
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("C%d", i)
		}
		dangling := []string{"dangling.D0", "dangling.D1", "dangling.D2"}
		sealed := trial%2 == 1
		closedFrom := n - 1 - rng.Intn(n/2+1) // C[closedFrom:] name no dangling supertype when sealed
		// Classes only reference higher-numbered names (a DAG) plus the
		// occasional dangling name; a declared dangling name may close a
		// cycle, which both implementations tolerate.
		newClass := func(name string, higher []string, mayDangle bool) *ir.Class {
			super := ""
			switch pick := rng.Intn(4); {
			case pick == 0 && len(higher) > 0:
				super = higher[rng.Intn(len(higher))]
			case pick == 1 && mayDangle:
				super = dangling[rng.Intn(len(dangling))]
			}
			c := ir.NewClass(name, super)
			c.Interface = rng.Intn(3) == 0
			for k := 0; k < rng.Intn(3) && len(higher) > 0; k++ {
				c.Interfaces = append(c.Interfaces, higher[rng.Intn(len(higher))])
			}
			if rng.Intn(2) == 0 {
				m := ir.NewMethod(fmt.Sprintf("m%d", rng.Intn(3)), ir.Void, false)
				if err := c.AddMethod(m); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(2) == 0 {
				if _, err := c.AddField(fmt.Sprintf("f%d", rng.Intn(3)), ir.Int, false); err != nil {
					t.Fatal(err)
				}
			}
			return c
		}
		var classes []*ir.Class
		for i := range names {
			classes = append(classes, newClass(names[i], names[i+1:], !sealed || i < closedFrom))
		}
		for _, d := range dangling {
			if rng.Intn(2) == 0 {
				classes = append(classes, newClass(d, names, false))
			}
		}

		prog := ir.NewProgram()
		late := classes
		if sealed {
			for _, c := range classes[closedFrom:n] {
				if err := prog.AddClass(c); err != nil {
					t.Fatal(err)
				}
			}
			prog.Seal()
			prog = prog.Clone()
			late = append(append([]*ir.Class{}, classes[:closedFrom]...), classes[n:]...)
		}
		rng.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
		add := func(cs []*ir.Class) {
			for _, c := range cs {
				if err := prog.AddClass(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		k := rng.Intn(len(late) + 1)
		add(late[:k])
		late = late[k:]
		sc := scene.New(prog)
		queries := append(append(append([]string{}, names...), dangling...), "nowhere.X")
		step := "prefix"
		for {
			checkScene(t, fmt.Sprintf("trial %d (%s)", trial, step), sc, prog, queries)
			if len(late) == 0 {
				break
			}
			b := 1 + rng.Intn(len(late))
			add(late[:b])
			step = fmt.Sprintf("after refresh with %d classes", b)
			late = late[b:]
			sc.Refresh()
		}
	}
}

// checkScene compares every query of sc over the names in queries with
// the program's uncached answer and a fresh scene's.
func checkScene(t *testing.T, at string, sc *scene.Scene, prog *ir.Program, queries []string) {
	t.Helper()
	fresh := scene.New(prog)
	classNames := func(cs []*ir.Class) string {
		var out []string
		for _, c := range cs {
			out = append(out, c.Name)
		}
		return fmt.Sprint(out)
	}
	if got, want := classNames(sc.Classes()), classNames(prog.Classes()); got != want {
		t.Fatalf("%s: Classes: scene %v, program %v", at, got, want)
	}
	if got, want := classNames(fresh.Classes()), classNames(prog.Classes()); got != want {
		t.Fatalf("%s: Classes: fresh scene %v, program %v", at, got, want)
	}
	for _, sub := range queries {
		for _, super := range queries {
			want := prog.SubtypeOf(sub, super)
			if got := sc.SubtypeOf(sub, super); got != want {
				t.Fatalf("%s: SubtypeOf(%s, %s): scene %v, program %v", at, sub, super, got, want)
			}
			if got := fresh.SubtypeOf(sub, super); got != want {
				t.Fatalf("%s: SubtypeOf(%s, %s): fresh scene %v, program %v", at, sub, super, got, want)
			}
		}
		want := fmt.Sprint(prog.SubtypesOf(sub))
		if got := fmt.Sprint(sc.SubtypesOf(sub)); got != want {
			t.Fatalf("%s: SubtypesOf(%s): scene %v, program %v", at, sub, got, want)
		}
		if got := fmt.Sprint(fresh.SubtypesOf(sub)); got != want {
			t.Fatalf("%s: SubtypesOf(%s): fresh scene %v, program %v", at, sub, got, want)
		}
		for k := 0; k < 3; k++ {
			mn := fmt.Sprintf("m%d", k)
			want := prog.ResolveMethod(sub, mn, 0)
			if got := sc.ResolveMethod(sub, mn, 0); got != want {
				t.Fatalf("%s: ResolveMethod(%s, %s): scene %v, program %v", at, sub, mn, got, want)
			}
			if got := fresh.ResolveMethod(sub, mn, 0); got != want {
				t.Fatalf("%s: ResolveMethod(%s, %s): fresh scene %v, program %v", at, sub, mn, got, want)
			}
			fn := fmt.Sprintf("f%d", k)
			wantF := prog.ResolveField(sub, fn)
			if got := sc.ResolveField(sub, fn); got != wantF {
				t.Fatalf("%s: ResolveField(%s, %s): scene %v, program %v", at, sub, fn, got, wantF)
			}
			if got := fresh.ResolveField(sub, fn); got != wantF {
				t.Fatalf("%s: ResolveField(%s, %s): fresh scene %v, program %v", at, sub, fn, got, wantF)
			}
		}
	}
}

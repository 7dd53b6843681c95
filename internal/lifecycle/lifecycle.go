// Package lifecycle generates the per-app dummy main method that emulates
// the Android component lifecycle (Section 3 of the paper). Android apps
// have no main method; the generated entry point models every lifecycle
// transition of every enabled component, in arbitrary sequential order
// with repetition, with registered callbacks invocable only while their
// owning component is running. Branching uses opaque predicates ("if *"),
// which the non-path-sensitive IFDS analysis treats as both-ways edges —
// exactly the construction of Figure 1.
package lifecycle

import (
	"encoding/hex"
	"fmt"
	"strings"

	"flowdroid/internal/apk"
	"flowdroid/internal/callbacks"
	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
)

// DummyMainClass is the name of the synthesized entry-point class.
const DummyMainClass = "dummyMainClass"

// Mode selects how faithfully the lifecycle automaton is generated.
type Mode int

const (
	// FullLifecycle generates the complete automaton of Figure 1:
	// arbitrary component order with repetition, pause/resume and
	// restart loops, callbacks only within the running phase. This is
	// FlowDroid's model.
	FullLifecycle Mode = iota
	// FlatLifecycle invokes each component's lifecycle methods once, in
	// canonical order, with no loops; callbacks follow unconditionally.
	// This mimics tools with a naive single-pass lifecycle model: flows
	// that need repetition or a non-canonical order (pause before the
	// next resume, save before restore) are missed.
	FlatLifecycle
	// CreateOnly invokes only the creation entry point of each
	// component, mimicking lifecycle-unaware tools.
	CreateOnly
)

// Options configures dummy-main generation.
type Options struct {
	// Mode selects the lifecycle automaton shape.
	Mode Mode
	// InvokeCallbacks controls whether discovered callbacks are invoked.
	InvokeCallbacks bool
	// RunStaticInitializers calls every app class's clinit method at the
	// very start of the dummy main. This reproduces Soot's assumption
	// that static initializers run at program start (which is why
	// DroidBench's StaticInitialization1 is missed).
	RunStaticInitializers bool
	// XMLCallbacksOnly restricts invocation to callbacks declared in
	// layout XML, mimicking tools that miss imperative registrations and
	// overridden framework methods.
	XMLCallbacksOnly bool
	// IncludeDisabled also models components the manifest disables,
	// mimicking tools that ignore android:enabled (the source of the
	// InactiveActivity false positive).
	IncludeDisabled bool
	// SkipComponents lists component classes to leave out of the dummy
	// main entirely. The demand-driven pipeline sets it to the components
	// outside a sink query's reachability cone; the generated class
	// records the set (see SkipFingerprintOf) so a dummy main built for
	// one query is never silently reused for another. Callers must keep
	// the slice sorted — the marker compares it as a string.
	SkipComponents []string
}

// SkipFingerprint renders the skip set for the generated-class marker
// ("" when nothing is skipped).
func (o Options) SkipFingerprint() string { return strings.Join(o.SkipComponents, ",") }

// DefaultOptions is the configuration FlowDroid uses.
func DefaultOptions() Options {
	return Options{Mode: FullLifecycle, InvokeCallbacks: true, RunStaticInitializers: true}
}

// FlatOptions is the single-pass lifecycle model of coarse tools.
func FlatOptions() Options {
	return Options{Mode: FlatLifecycle, InvokeCallbacks: true, RunStaticInitializers: true}
}

// Generate synthesizes the dummy main method for the app and registers its
// class in the app's program. It returns the entry method.
func Generate(app *apk.App, cbs *callbacks.Result, opts Options) (*ir.Method, error) {
	return GenerateWith(app, cbs, app.Program, opts)
}

// GenerateWith is Generate resolving hierarchy queries against h — pass
// a scene.Scene to reuse its caches. The scene must be Refreshed
// afterwards, since generation adds the dummy-main class to the program.
func GenerateWith(app *apk.App, cbs *callbacks.Result, h ir.Hierarchy, opts Options) (*ir.Method, error) {
	prog := app.Program
	if prog.Class(DummyMainClass) != nil {
		return nil, fmt.Errorf("lifecycle: %s already generated", DummyMainClass)
	}
	cb := ir.NewClassIn(prog, DummyMainClass, "")
	cb.Class().Synthetic = true
	if fp := opts.SkipFingerprint(); fp != "" {
		// Record the skip set on the class so a later pipeline run can
		// tell which query this dummy main was generated for.
		if _, err := cb.Class().AddField(skipMarkerPrefix+hex.EncodeToString([]byte(fp)), ir.Unknown, true); err != nil {
			return nil, fmt.Errorf("lifecycle: %w", err)
		}
	}
	mb := cb.StaticMethod("dummyMain", ir.Void)

	g := &generator{app: app, h: h, cbs: cbs, mb: mb, opts: opts}
	g.emit()

	mb.Done()
	if err := cb.Err(); err != nil {
		return nil, err
	}
	if err := prog.Link(); err != nil {
		return nil, fmt.Errorf("lifecycle: linking dummy main: %w", err)
	}
	return mb.Method(), nil
}

type generator struct {
	app  *apk.App
	h    ir.Hierarchy
	cbs  *callbacks.Result
	mb   *ir.MethodBuilder
	opts Options
	n    int // label counter
}

func (g *generator) label(stem string) string {
	g.n++
	return fmt.Sprintf("%s_%d", stem, g.n)
}

// emit writes the whole dummy main body.
func (g *generator) emit() {
	mb := g.mb
	if g.opts.RunStaticInitializers {
		g.emitStaticInitializers()
	}
	g.emitApplication()
	comps := g.components()
	if len(comps) == 0 {
		mb.Return(nil)
		return
	}
	end := g.label("end")
	loop := g.label("loop")
	mb.If(end) // the app may never run any component
	mb.Label(loop).Nop()
	// Arbitrary component choice: a chain of opaque branches.
	next := make([]string, len(comps))
	for i := range comps {
		next[i] = g.label("comp")
	}
	loopCheck := g.label("again")
	for i, comp := range comps {
		mb.Label(next[i]).Nop()
		if i < len(comps)-1 {
			mb.If(next[i+1])
		}
		g.emitComponent(comp)
		mb.Goto(loopCheck)
	}
	// Arbitrary sequential order including repetition.
	mb.Label(loopCheck).If(loop)
	mb.Goto(end)
	mb.Label(end).Return(nil)
}

// components returns the components to model, honoring IncludeDisabled
// and SkipComponents.
func (g *generator) components() []*apk.Component {
	return ModeledComponents(g.app, g.opts)
}

// ModeledComponents returns the components the dummy main would model
// under the options: the enabled components (or every declared one under
// IncludeDisabled) minus the SkipComponents set. The demand-driven
// pipeline uses the same enumeration to decide which components the
// reachability cone lets it skip.
func ModeledComponents(app *apk.App, opts Options) []*apk.Component {
	comps := app.Components()
	if opts.IncludeDisabled {
		comps = nil
		for _, c := range app.Manifest.Components {
			if app.Program.Class(c.Class) != nil {
				comps = append(comps, c)
			}
		}
	}
	if len(opts.SkipComponents) == 0 {
		return comps
	}
	skip := make(map[string]bool, len(opts.SkipComponents))
	for _, c := range opts.SkipComponents {
		skip[c] = true
	}
	out := comps[:0:0]
	for _, c := range comps {
		if !skip[c.Class] {
			out = append(out, c)
		}
	}
	return out
}

// skipMarkerPrefix prefixes the synthetic static field recording the
// hex-encoded skip fingerprint on the generated class.
const skipMarkerPrefix = "queryskip$"

// SkipFingerprintOf recovers the skip fingerprint an existing dummy-main
// class was generated with ("" for an unfiltered dummy main).
func SkipFingerprintOf(c *ir.Class) string {
	for _, f := range c.Fields() {
		if strings.HasPrefix(f.Name, skipMarkerPrefix) {
			if raw, err := hex.DecodeString(strings.TrimPrefix(f.Name, skipMarkerPrefix)); err == nil {
				return string(raw)
			}
		}
	}
	return ""
}

// callbacksOf filters the discovered callbacks per the options.
func (g *generator) callbacksOf(comp *apk.Component) []*ir.Method {
	cbs := g.cbs.CallbacksOf(comp.Class)
	if !g.opts.XMLCallbacksOnly {
		return cbs
	}
	var out []*ir.Method
	for _, m := range cbs {
		if g.cbs.Origins[m] == callbacks.XMLOrigin {
			out = append(out, m)
		}
	}
	return out
}

// emitApplication models the custom Application subclass: Android
// guarantees its onCreate runs before any component starts, so it is
// emitted unconditionally at the head of the dummy main.
func (g *generator) emitApplication() {
	name := g.app.Manifest.Application
	if name == "" || g.h.Class(name) == nil {
		return
	}
	if !g.h.SubtypeOf(name, "android.app.Application") {
		return
	}
	a := g.newLocal("app", name)
	g.mb.VCall(a, "onCreate")
}

// emitStaticInitializers invokes every app class's clinit at program
// start, mirroring Soot's (unsound in general) placement.
func (g *generator) emitStaticInitializers() {
	for _, c := range g.app.Program.Classes() {
		if c.Synthetic || c.Interface {
			continue
		}
		if m := c.Method("clinit", 0); m != nil && !m.Abstract() && m.Static {
			g.mb.SCall(c.Name, "clinit")
		}
	}
}

func (g *generator) emitComponent(comp *apk.Component) {
	switch comp.Kind {
	case framework.Activity:
		g.emitActivity(comp)
	case framework.Service:
		g.emitService(comp)
	case framework.Receiver:
		g.emitReceiver(comp)
	case framework.Provider:
		g.emitProvider(comp)
	}
}

// newLocal allocates a fresh typed local holding a new instance of class.
func (g *generator) newLocal(stem, class string) *ir.Local {
	g.n++
	l := g.mb.Local(fmt.Sprintf("%s%d", stem, g.n))
	l.Type = ir.Ref(class)
	g.mb.New(l, class)
	return l
}

// emitActivity generates the activity lifecycle automaton of Figure 1.
func (g *generator) emitActivity(comp *apk.Component) {
	mb := g.mb
	a := g.newLocal("a", comp.Class)
	bundle := g.newLocal("b", "android.os.Bundle")

	switch g.opts.Mode {
	case CreateOnly:
		mb.VCall(a, "onCreate", bundle)
		g.emitCallbacksFlat(comp, a)
		return
	case FlatLifecycle:
		mb.VCall(a, "onCreate", bundle)
		mb.VCall(a, "onStart")
		mb.VCall(a, "onRestoreInstanceState", bundle)
		mb.VCall(a, "onResume")
		g.emitCallbacksFlat(comp, a)
		mb.VCall(a, "onPause")
		mb.VCall(a, "onSaveInstanceState", bundle)
		mb.VCall(a, "onStop")
		mb.VCall(a, "onRestart")
		mb.VCall(a, "onDestroy")
		return
	}

	lStart := g.label("start")
	lResume := g.label("resume")
	lRunning := g.label("running")
	lPause := g.label("pause")
	lStopCheck := g.label("stopcheck")
	lRestart := g.label("restart")
	lEnd := g.label("endcomp")

	mb.VCall(a, "onCreate", bundle)
	mb.Label(lStart).VCall(a, "onStart")
	mb.If(lResume)
	mb.VCall(a, "onRestoreInstanceState", bundle)
	mb.Label(lResume).VCall(a, "onResume")

	// Running phase: any subset of callbacks, any order, any number of
	// times.
	mb.Label(lRunning).If(lPause)
	g.emitCallbackChain(comp, a)
	mb.Goto(lRunning)

	mb.Label(lPause).VCall(a, "onPause")
	mb.If(lStopCheck)
	mb.VCall(a, "onSaveInstanceState", bundle)
	mb.Label(lStopCheck).If(lResume) // paused activity may resume
	mb.VCall(a, "onStop")
	mb.If(lRestart)
	mb.VCall(a, "onDestroy")
	mb.Goto(lEnd)
	mb.Label(lRestart).VCall(a, "onRestart")
	mb.Goto(lStart)
	mb.Label(lEnd).Nop()
}

func (g *generator) emitService(comp *apk.Component) {
	mb := g.mb
	s := g.newLocal("s", comp.Class)
	switch g.opts.Mode {
	case CreateOnly:
		mb.VCall(s, "onCreate")
		g.emitCallbacksFlat(comp, s)
		return
	case FlatLifecycle:
		mb.VCall(s, "onCreate")
		fi := g.newLocal("i", "android.content.Intent")
		mb.VCall(s, "onStartCommand", fi)
		mb.VCall(s, "onBind", fi)
		g.emitCallbacksFlat(comp, s)
		mb.VCall(s, "onUnbind", fi)
		mb.VCall(s, "onDestroy")
		return
	}
	loop := g.label("svcloop")
	bind := g.label("svcbind")
	endl := g.label("svcend")

	mb.VCall(s, "onCreate")
	mb.Label(loop).If(endl)
	mb.If(bind)
	intent := g.newLocal("i", "android.content.Intent")
	mb.VCall(s, "onStartCommand", intent)
	g.emitCallbackChain(comp, s)
	mb.Goto(loop)
	mb.Label(bind).Nop()
	intent2 := g.newLocal("i", "android.content.Intent")
	mb.VCall(s, "onBind", intent2)
	mb.VCall(s, "onUnbind", intent2)
	mb.Goto(loop)
	mb.Label(endl).VCall(s, "onDestroy")
}

func (g *generator) emitReceiver(comp *apk.Component) {
	mb := g.mb
	r := g.newLocal("r", comp.Class)
	ctx := g.newLocal("c", "android.content.Context")
	intent := g.newLocal("i", "android.content.Intent")
	if g.opts.Mode != FullLifecycle {
		mb.VCall(r, "onReceive", ctx, intent)
		g.emitCallbacksFlat(comp, r)
		return
	}
	loop := g.label("rcvloop")
	endl := g.label("rcvend")
	mb.Label(loop).If(endl)
	mb.VCall(r, "onReceive", ctx, intent)
	g.emitCallbackChain(comp, r)
	mb.Goto(loop)
	mb.Label(endl).Nop()
}

func (g *generator) emitProvider(comp *apk.Component) {
	mb := g.mb
	p := g.newLocal("p", comp.Class)
	mb.VCall(p, "onCreate")
	if g.opts.Mode != FullLifecycle {
		g.emitCallbacksFlat(comp, p)
		return
	}
	loop := g.label("prvloop")
	endl := g.label("prvend")
	uri := g.newLocal("u", "android.net.Uri")
	vals := g.newLocal("v", "android.content.ContentValues")
	g.n++
	sel := mb.Local(fmt.Sprintf("sel%d", g.n))
	sel.Type = ir.Ref("java.lang.String")
	mb.Assign(sel, ir.StringOf(""))
	mb.Label(loop).If(endl)
	mb.VCall(p, "query", uri, sel)
	mb.VCall(p, "insert", uri, vals)
	mb.VCall(p, "update", uri, vals)
	mb.VCall(p, "delete", uri, sel)
	g.emitCallbackChain(comp, p)
	mb.Goto(loop)
	mb.Label(endl).Nop()
}

// emitCallbackChain emits the component's callbacks as a chain of
// optionally executed invocations. Listener objects are allocated once per
// component so that taints stored in their fields persist across callback
// invocations.
func (g *generator) emitCallbackChain(comp *apk.Component, recv *ir.Local) {
	if !g.opts.InvokeCallbacks {
		return
	}
	listeners := make(map[string]*ir.Local)
	for _, cb := range g.callbacksOf(comp) {
		skip := g.label("cbskip")
		g.mb.If(skip)
		g.emitCallbackInvoke(comp, cb, recv, listeners)
		g.mb.Label(skip).Nop()
	}
}

// emitCallbacksFlat invokes all callbacks unconditionally, twice in
// sequence: coarse tools analyze callbacks without ordering assumptions,
// and the second round lets a value stored by one callback reach reads in
// any other without modeling arbitrary interleavings.
func (g *generator) emitCallbacksFlat(comp *apk.Component, recv *ir.Local) {
	if !g.opts.InvokeCallbacks {
		return
	}
	listeners := make(map[string]*ir.Local)
	for round := 0; round < 2; round++ {
		for _, cb := range g.callbacksOf(comp) {
			g.emitCallbackInvoke(comp, cb, recv, listeners)
		}
	}
}

func (g *generator) emitCallbackInvoke(comp *apk.Component, cb *ir.Method, recv *ir.Local, listeners map[string]*ir.Local) {
	mb := g.mb
	target := recv
	if cb.Class.Name != comp.Class {
		l, ok := listeners[cb.Class.Name]
		if !ok {
			l = g.newLocal("l", cb.Class.Name)
			listeners[cb.Class.Name] = l
		}
		target = l
	}
	args := make([]ir.Value, len(cb.Params))
	for i, p := range cb.Params {
		args[i] = g.argFor(p.Type)
	}
	mb.VCall(target, cb.Name, args...)
}

// argFor fabricates an argument value of the given type: fresh framework
// objects for reference types, constants for primitives and strings.
func (g *generator) argFor(t ir.Type) ir.Value {
	switch {
	case t.IsRef() && t.Name == "java.lang.String":
		return ir.StringOf("")
	case t.IsRef():
		cls := g.app.Program.Class(t.Name)
		if cls != nil && !cls.Interface {
			return g.newLocal("arg", t.Name)
		}
		return ir.NullOf()
	case t.IsPrim():
		return ir.IntOf(0)
	default:
		return ir.NullOf()
	}
}

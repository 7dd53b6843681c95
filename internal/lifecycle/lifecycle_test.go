package lifecycle

import (
	"context"
	"strings"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/callbacks"
	"flowdroid/internal/cfg"
	"flowdroid/internal/ir"
	"flowdroid/internal/pta"
	"flowdroid/internal/testapps"
)

func genLeakage(t *testing.T, opts Options) (*apk.App, *ir.Method) {
	t.Helper()
	app, err := apk.LoadFiles(testapps.LeakageApp)
	if err != nil {
		t.Fatal(err)
	}
	cbs := callbacks.Discover(context.Background(), app)
	main, err := Generate(app, cbs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return app, main
}

// callNames extracts the invoked method names from a dummy main body in
// order.
func callNames(m *ir.Method) []string {
	var out []string
	for _, s := range m.Body() {
		if c := ir.CallOf(s); c != nil {
			out = append(out, c.Ref.Name)
		}
	}
	return out
}

func TestDummyMainLifecycleOrder(t *testing.T) {
	_, main := genLeakage(t, DefaultOptions())
	names := callNames(main)
	joined := strings.Join(names, " ")
	// The enabled activity's full lifecycle appears in canonical order.
	for _, want := range []string{
		"onCreate onStart", "onResume", "onPause", "onStop", "onRestart", "onDestroy",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("lifecycle call %q missing from %q", want, joined)
		}
	}
	// The XML button callback is invoked.
	if !strings.Contains(joined, "sendMessage") {
		t.Errorf("sendMessage callback not invoked: %q", joined)
	}
	// The disabled activity's lifecycle must not be modeled.
	for _, s := range main.Body() {
		if c := ir.CallOf(s); c != nil && c.Base != nil &&
			c.Base.Type.Name == "com.example.leakage.DisabledActivity" {
			t.Error("disabled activity appears in dummy main")
		}
		if a, ok := s.(*ir.AssignStmt); ok {
			if n, ok := a.RHS.(*ir.New); ok && n.Type.Name == "com.example.leakage.DisabledActivity" {
				t.Error("disabled activity allocated in dummy main")
			}
		}
	}
}

func TestDummyMainCallbackPlacement(t *testing.T) {
	// The callback must be invocable between onResume and onPause: on the
	// CFG there must be a path onResume -> sendMessage -> onPause, and
	// sendMessage must be inside the running-phase loop (reachable from
	// itself).
	_, main := genLeakage(t, DefaultOptions())
	c := cfg.New(main)

	find := func(name string) ir.Stmt {
		for _, s := range main.Body() {
			if call := ir.CallOf(s); call != nil && call.Ref.Name == name {
				return s
			}
		}
		t.Fatalf("call %s not found", name)
		return nil
	}
	reaches := func(from, to ir.Stmt) bool {
		seen := make(map[int]bool)
		stack := []ir.Stmt{from}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nxt := range c.Succs(s) {
				if nxt == to {
					return true
				}
				if !seen[nxt.Index()] {
					seen[nxt.Index()] = true
					stack = append(stack, nxt)
				}
			}
		}
		return false
	}
	onResume := find("onResume")
	onPause := find("onPause")
	send := find("sendMessage")
	if !reaches(onResume, send) {
		t.Error("no path onResume -> sendMessage")
	}
	if !reaches(send, onPause) {
		t.Error("no path sendMessage -> onPause")
	}
	if !reaches(send, send) {
		t.Error("callback should be repeatable (loop)")
	}
	if !reaches(onPause, onResume) {
		t.Error("paused activity should be able to resume")
	}
	// onDestroy must not loop back into the same activity instance's
	// onResume... but a fresh lifecycle may start (component repetition),
	// so we only require that onCreate is reachable again from onDestroy.
	onCreate := find("onCreate")
	onDestroy := find("onDestroy")
	if !reaches(onDestroy, onCreate) {
		t.Error("component repetition: onDestroy should reach a fresh onCreate")
	}
}

func TestDummyMainIsAnalyzable(t *testing.T) {
	app, main := genLeakage(t, DefaultOptions())
	// The generated method must produce a usable call graph: sendMessage
	// and the lifecycle overrides of the app must be reachable.
	res := pta.Build(context.Background(), app.Program, main)
	var haveSend, haveRestart bool
	for _, m := range res.Graph.Reachable() {
		if m.Class.Name == "com.example.leakage.LeakageApp" {
			switch m.Name {
			case "sendMessage":
				haveSend = true
			case "onRestart":
				haveRestart = true
			}
		}
	}
	if !haveSend || !haveRestart {
		t.Errorf("reachable: sendMessage=%v onRestart=%v", haveSend, haveRestart)
	}
}

func TestLifecycleUnawareMode(t *testing.T) {
	opts := Options{Mode: CreateOnly, InvokeCallbacks: true}
	_, main := genLeakage(t, opts)
	joined := strings.Join(callNames(main), " ")
	if strings.Contains(joined, "onRestart") || strings.Contains(joined, "onPause") {
		t.Errorf("lifecycle-unaware mode should only call onCreate: %q", joined)
	}
	if !strings.Contains(joined, "sendMessage") {
		t.Errorf("callbacks should still be invoked: %q", joined)
	}
}

func TestNoCallbacksMode(t *testing.T) {
	opts := Options{InvokeCallbacks: false}
	_, main := genLeakage(t, opts)
	joined := strings.Join(callNames(main), " ")
	if strings.Contains(joined, "sendMessage") {
		t.Errorf("callbacks must not be invoked in this mode: %q", joined)
	}
}

func TestGenerateTwiceFails(t *testing.T) {
	app, err := apk.LoadFiles(testapps.LeakageApp)
	if err != nil {
		t.Fatal(err)
	}
	cbs := callbacks.Discover(context.Background(), app)
	if _, err := Generate(app, cbs, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(app, cbs, DefaultOptions()); err == nil {
		t.Error("second Generate should fail")
	}
}

func TestServiceAndReceiverLifecycles(t *testing.T) {
	app, err := apk.LoadFiles(map[string]string{
		"AndroidManifest.xml": `<manifest package="com.x"><application>
			<service android:name=".Svc"/>
			<receiver android:name=".Rcv"/>
			<provider android:name=".Prv"/>
		</application></manifest>`,
		"c.ir": `
class com.x.Svc extends android.app.Service {
  method onCreate(): void {
    return
  }
  method onStartCommand(i: android.content.Intent): void {
    return
  }
}
class com.x.Rcv extends android.content.BroadcastReceiver {
  method onReceive(c: android.content.Context, i: android.content.Intent): void {
    return
  }
}
class com.x.Prv extends android.content.ContentProvider {
  method query(u: android.net.Uri, sel: java.lang.String): java.lang.Object {
    r = new java.lang.Object
    return r
  }
}
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	main, err := Generate(app, callbacks.Discover(context.Background(), app), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(callNames(main), " ")
	for _, want := range []string{"onStartCommand", "onBind", "onUnbind", "onReceive",
		"query", "insert", "update", "delete"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s in dummy main: %q", want, joined)
		}
	}
}

func TestFlatLifecycleMode(t *testing.T) {
	_, main := genLeakage(t, FlatOptions())
	names := callNames(main)
	// Canonical order, one pass: onCreate before onStart before onResume
	// before onPause before onStop before onRestart before onDestroy.
	idx := map[string]int{}
	for i, n := range names {
		if _, seen := idx[n]; !seen {
			idx[n] = i
		}
	}
	order := []string{"onCreate", "onStart", "onResume", "sendMessage",
		"onPause", "onStop", "onRestart", "onDestroy"}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		ia, oka := idx[a]
		ib, okb := idx[b]
		if !oka || !okb {
			t.Fatalf("missing %s or %s in flat dummy main: %v", a, b, names)
		}
		if ia >= ib {
			t.Errorf("flat order broken: %s (%d) should precede %s (%d)", a, ia, b, ib)
		}
	}
	// The component block itself is branch-free (single pass); only the
	// outer component-selection loop branches.
	var first, last int
	for i, s := range main.Body() {
		if c := ir.CallOf(s); c != nil {
			if c.Ref.Name == "onCreate" {
				first = i
			}
			if c.Ref.Name == "onDestroy" {
				last = i
			}
		}
	}
	for i := first; i <= last; i++ {
		if _, ok := main.Body()[i].(*ir.IfStmt); ok {
			t.Error("flat component block must not contain opaque branches")
		}
	}
	// Callbacks are emitted twice (order-insensitive approximation).
	count := 0
	for _, n := range names {
		if n == "sendMessage" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("flat mode should invoke each callback twice, got %d", count)
	}
}

func TestXMLCallbacksOnlyMode(t *testing.T) {
	app, err := apk.LoadFiles(testapps.LocationApp)
	if err != nil {
		t.Fatal(err)
	}
	cbs := callbacks.Discover(context.Background(), app)
	opts := DefaultOptions()
	opts.XMLCallbacksOnly = true
	main, err := Generate(app, cbs, opts)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(callNames(main), " ")
	if strings.Contains(joined, "onLocationChanged") {
		t.Error("imperatively registered callback invoked in XML-only mode")
	}
	if !strings.Contains(joined, "leakIt") {
		t.Error("XML-declared callback missing")
	}
}

func TestIncludeDisabledMode(t *testing.T) {
	app, err := apk.LoadFiles(testapps.LeakageApp)
	if err != nil {
		t.Fatal(err)
	}
	cbs := callbacks.Discover(context.Background(), app)
	opts := DefaultOptions()
	opts.IncludeDisabled = true
	main, err := Generate(app, cbs, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, s := range main.Body() {
		if a, ok := s.(*ir.AssignStmt); ok {
			if n, ok := a.RHS.(*ir.New); ok && n.Type.Name == "com.example.leakage.DisabledActivity" {
				seen = true
			}
		}
	}
	if !seen {
		t.Error("IncludeDisabled should model the disabled activity")
	}
}

// TestApplicationClassModeled: a custom Application subclass declared via
// <application android:name> has its onCreate invoked before any
// component's lifecycle, as Android guarantees.
func TestApplicationClassModeled(t *testing.T) {
	app, err := apk.LoadFiles(map[string]string{
		"AndroidManifest.xml": `<manifest package="com.x">
			<application android:name=".MyApp">
				<activity android:name=".Main"/>
			</application></manifest>`,
		"c.ir": `
class com.x.MyApp extends android.app.Application {
  static field boot: java.lang.String
  method onCreate(): void {
    com.x.MyApp.boot = "ready"
  }
}
class com.x.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle): void {
    return
  }
}
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if app.Manifest.Application != "com.x.MyApp" {
		t.Fatalf("manifest application = %q", app.Manifest.Application)
	}
	main, err := Generate(app, callbacks.Discover(context.Background(), app), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The Application's onCreate must appear before the activity's.
	var appCreate, actCreate = -1, -1
	for i, s := range main.Body() {
		c := ir.CallOf(s)
		if c == nil || c.Ref.Name != "onCreate" || c.Base == nil {
			continue
		}
		switch c.Base.Type.Name {
		case "com.x.MyApp":
			appCreate = i
		case "com.x.Main":
			if actCreate == -1 {
				actCreate = i
			}
		}
	}
	if appCreate == -1 {
		t.Fatal("Application.onCreate not invoked")
	}
	if actCreate != -1 && appCreate > actCreate {
		t.Errorf("Application.onCreate at %d should precede the activity's at %d", appCreate, actCreate)
	}
}

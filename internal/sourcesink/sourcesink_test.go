package sourcesink

import (
	"strings"
	"sync"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
)

func TestParseRules(t *testing.T) {
	prog := framework.NewProgram()
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	m, err := Parse(prog, `
# comment
source <a.B: getSecret/0> -> return label secret
source <a.C: onEvent/2> -> param1
sink <a.D: leak/3> -> arg0, arg2
sink <a.E: leakAll/2> -> all
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sources()) != 2 || len(m.Sinks()) != 2 {
		t.Fatalf("parsed %d sources, %d sinks", len(m.Sources()), len(m.Sinks()))
	}
	s0 := m.Sources()[0]
	if s0.Class != "a.B" || s0.Name != "getSecret" || s0.Param != Return || s0.Label != "secret" {
		t.Errorf("source 0 = %+v", s0)
	}
	if m.Sources()[1].Param != 1 {
		t.Errorf("source 1 param = %d", m.Sources()[1].Param)
	}
	k0 := m.Sinks()[0]
	if len(k0.Args) != 2 || k0.Args[0] != 0 || k0.Args[1] != 2 {
		t.Errorf("sink 0 args = %v", k0.Args)
	}
	if m.Sinks()[1].Args != nil {
		t.Errorf("sink 1 should leak all args")
	}
	// Round trip through String.
	if got := s0.String(); !strings.Contains(got, "<a.B: getSecret/0> -> return") {
		t.Errorf("source String = %q", got)
	}
	if got := k0.String(); !strings.Contains(got, "arg0, arg2") {
		t.Errorf("sink String = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	prog := ir.NewProgram()
	for _, bad := range []string{
		"frobnicate <a.B: x/0> -> return",
		"source a.B.x -> return",
		"source <a.B: x> -> return",
		"source <a.B: x/0> -> arg0",
		"sink <a.B: x/0> -> bogus",
	} {
		if _, err := Parse(prog, bad); err == nil {
			t.Errorf("rule %q should not parse", bad)
		}
	}
}

const appSrc = `
class com.x.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle): void {
    tmRaw = this.getSystemService("phone")
    local tm: android.telephony.TelephonyManager
    tm = (android.telephony.TelephonyManager) tmRaw
    id = tm.getDeviceId()
    android.util.Log.i("tag", id)
    return
  }
  method readPwd(): void {
    w = this.findViewById(@id/pwd)
    local et: android.widget.EditText
    et = (android.widget.EditText) w
    p = et.getText()
    o = this.findViewById(@id/plain)
    local ot: android.widget.EditText
    ot = (android.widget.EditText) o
    q = ot.getText()
    return
  }
}
`

func loadTestApp(t *testing.T) *apk.App {
	t.Helper()
	app, err := apk.LoadFiles(map[string]string{
		"AndroidManifest.xml": `<manifest package="com.x"><application>
			<activity android:name=".Main"/></application></manifest>`,
		"res/layout/main.xml": `<LinearLayout>
			<EditText android:id="@+id/pwd" android:inputType="textPassword"/>
			<EditText android:id="@+id/plain" android:inputType="text"/>
		</LinearLayout>`,
		"classes.ir": appSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func findCall(m *ir.Method, name string, skip int) ir.Stmt {
	for _, s := range m.Body() {
		if c := ir.CallOf(s); c != nil && c.Ref.Name == name {
			if skip == 0 {
				return s
			}
			skip--
		}
	}
	return nil
}

func TestDefaultSourcesAndSinks(t *testing.T) {
	app := loadTestApp(t)
	m := Default(app.Program)
	m.AttachApp(app)
	onCreate := app.Program.Class("com.x.Main").Method("onCreate", 1)

	src, ok := m.SourceAtCall(findCall(onCreate, "getDeviceId", 0))
	if !ok || src.Label != "device-id" {
		t.Errorf("getDeviceId should be a source, got %+v ok=%v", src, ok)
	}
	snk, args, ok := m.SinkAtCall(findCall(onCreate, "i", 0))
	if !ok || snk.Label != "log" {
		t.Fatalf("Log.i should be a sink, got ok=%v", ok)
	}
	if len(args) != 1 || args[0] != 1 {
		t.Errorf("Log.i leaking args = %v, want [1]", args)
	}
	if _, ok := m.SourceAtCall(findCall(onCreate, "getSystemService", 0)); ok {
		t.Error("getSystemService must not be a source")
	}
}

func TestLayoutPasswordSource(t *testing.T) {
	app := loadTestApp(t)
	m := Default(app.Program)
	m.AttachApp(app)
	readPwd := app.Program.Class("com.x.Main").Method("readPwd", 0)

	// getText on the password widget (reached through a cast) is a source.
	src, ok := m.SourceAtCall(findCall(readPwd, "getText", 0))
	if !ok || src.Label != "password-field" {
		t.Errorf("password getText should be a source, got %+v ok=%v", src, ok)
	}
	// getText on the plain-text widget is not.
	if _, ok := m.SourceAtCall(findCall(readPwd, "getText", 1)); ok {
		t.Error("plain-text getText must not be a source")
	}
}

func TestParamSources(t *testing.T) {
	prog := framework.NewProgram()
	cb := ir.NewClassIn(prog, "com.x.Listener", "").
		Implements("android.location.LocationListener")
	mb := cb.Method("onLocationChanged", ir.Void)
	mb.Param("loc", ir.Ref("android.location.Location"))
	mb.Return(nil)
	mb.Done()
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	m := Default(prog)
	method := prog.Class("com.x.Listener").Method("onLocationChanged", 1)
	srcs := m.ParamSources(method)
	if len(srcs) != 1 || srcs[0].Param != 0 {
		t.Errorf("ParamSources = %+v, want the location-callback param0", srcs)
	}
	// A random method must have none.
	other := ir.NewMethod("helper", ir.Void, true)
	other.Class = prog.Class("com.x.Listener")
	if len(m.ParamSources(other)) != 0 {
		t.Error("helper should have no param sources")
	}
}

func TestSetResultIsNotASink(t *testing.T) {
	// Mirrors the paper: result intents flow through the framework, so
	// setResult is intentionally absent from the sink list (IntentSink1
	// is missed).
	prog := framework.NewProgram()
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	m := Default(prog)
	for _, s := range m.Sinks() {
		if s.Name == "setResult" {
			t.Error("setResult must not be configured as a sink")
		}
	}
}

func TestAddSourceAddSink(t *testing.T) {
	prog := framework.NewProgram()
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	m := NewManager(prog, nil, nil)
	m.AddSource(Source{Class: "a.B", Name: "sec", NArgs: 0, Param: Return, Label: "x"})
	m.AddSink(Sink{Class: "a.C", Name: "out", NArgs: 1, Args: []int{0}, Label: "y"})
	if len(m.Sources()) != 1 || len(m.Sinks()) != 1 {
		t.Error("Add* did not register rules")
	}
}

// TestDefaultManagersAreIndependent: Default parses the built-in rules
// once per process and shares them, so one manager's AddSource/AddSink
// must not show in another's rules, and concurrent Default calls (run
// under -race) must not race.
func TestDefaultManagersAreIndependent(t *testing.T) {
	prog := framework.NewProgram()
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	mgrs := make([]*Manager, 4)
	for i := range mgrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mgrs[i] = Default(prog)
		}(i)
	}
	wg.Wait()
	a, b := mgrs[0], mgrs[1]
	nSrc, nSnk := len(b.Sources()), len(b.Sinks())
	a.AddSource(Source{Class: "a.A", Name: "src", Param: Return, Label: "from-a"})
	a.AddSink(Sink{Class: "a.A", Name: "snk", Label: "from-a"})
	b.AddSource(Source{Class: "b.B", Name: "src", Param: Return, Label: "from-b"})
	b.AddSink(Sink{Class: "b.B", Name: "snk", Label: "from-b"})
	for _, tc := range []struct {
		m    *Manager
		want string
	}{{a, "from-a"}, {b, "from-b"}, {Default(prog), ""}} {
		srcs, snks := tc.m.Sources(), tc.m.Sinks()
		extra := 0
		if tc.want != "" {
			extra = 1
		}
		if len(srcs) != nSrc+extra || len(snks) != nSnk+extra {
			t.Fatalf("manager has %d sources, %d sinks, want %d, %d", len(srcs), len(snks), nSrc+extra, nSnk+extra)
		}
		if tc.want == "" {
			continue
		}
		if got := srcs[nSrc].Label; got != tc.want {
			t.Errorf("added source label %q, want %q", got, tc.want)
		}
		if got := snks[nSnk].Label; got != tc.want {
			t.Errorf("added sink label %q, want %q", got, tc.want)
		}
	}
}

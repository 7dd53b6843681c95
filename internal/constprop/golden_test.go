package constprop_test

// The constprop golden pins everything the pass produces, for the
// reflection corpus (appgen.Reflection, seed 1) plus DroidBench's
// Reflection1–4: the SoundnessReport JSON, every classified Site as
// (method, statement index, API, targets, ctors), and the printed
// reflection$Bridges class Materialize synthesizes. A change to the
// fixpoint's internals must leave it byte-identical. Refresh it, when a
// change is intentional, with
//
//	UPDATE_GOLDEN=1 go test ./internal/constprop -run TestConstpropGolden

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/constprop"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/ir"
	"flowdroid/internal/scene"
)

const goldenApps = 60

// goldenInput is one named app package the golden covers.
type goldenInput struct {
	name  string
	files map[string]string
}

func goldenInputs() []goldenInput {
	var in []goldenInput
	for _, c := range droidbench.ReflectionCases() {
		in = append(in, goldenInput{c.Name, c.Files})
	}
	for _, a := range appgen.GenerateCorpus(appgen.Reflection, goldenApps, 1) {
		in = append(in, goldenInput{a.Name, a.Files})
	}
	return in
}

// renderConstprop analyzes and materializes one app and prints the
// pass's whole observable output.
func renderConstprop(t testing.TB, files map[string]string) string {
	t.Helper()
	app, err := apk.LoadFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	res := constprop.Analyze(context.Background(), scene.New(app.Program))
	if res.Truncated {
		t.Fatal("analysis truncated without a deadline")
	}
	out := constprop.Render(res)
	if _, err := res.Materialize(app.Program); err != nil {
		t.Fatal(err)
	}
	if c := app.Program.Class(constprop.BridgesClass); c != nil {
		out += ir.PrintClass(c)
	}
	return out
}

// TestBridgesNeedNoWholeProgramLink: Materialize's Link links only the
// bridges class it adds. That is all the linking the bridges need: every
// statement is bound, every local typed, and linking every class again
// afterwards changes nothing in them.
func TestBridgesNeedNoWholeProgramLink(t *testing.T) {
	for _, in := range goldenInputs() {
		app, err := apk.LoadFiles(in.files)
		if err != nil {
			t.Fatal(err)
		}
		res := constprop.Analyze(context.Background(), scene.New(app.Program))
		if _, err := res.Materialize(app.Program); err != nil {
			t.Fatal(err)
		}
		c := app.Program.Class(constprop.BridgesClass)
		if c == nil {
			continue
		}
		types := func() string {
			var b strings.Builder
			for _, m := range c.Methods() {
				for i, s := range m.Body() {
					if s.Method() != m || s.Index() != i {
						t.Errorf("%s: bridge %s statement %d is not finalized", in.name, m, i)
					}
				}
				for _, l := range m.Locals() {
					if l.Type.IsUnknown() {
						t.Errorf("%s: bridge %s local %s is untyped", in.name, m, l.Name)
					}
					fmt.Fprintf(&b, "%s.%s: %s\n", m.Name, l.Name, l.Type)
				}
			}
			return b.String() + ir.PrintClass(c)
		}
		before := types()
		if err := linkEveryClass(app.Program); err != nil {
			t.Fatal(err)
		}
		if after := types(); after != before {
			t.Errorf("%s: a full link changed the bridges:\n%s\nvs\n%s", in.name, after, before)
		}
	}
}

// linkEveryClass links every class with a body again: installing a body
// anew marks its class for the next Link.
func linkEveryClass(prog *ir.Program) error {
	for _, m := range prog.Methods() {
		if !m.Abstract() {
			m.SetBody(m.Body())
		}
	}
	return prog.Link()
}

func TestConstpropGolden(t *testing.T) {
	var got bytes.Buffer
	for _, in := range goldenInputs() {
		fmt.Fprintf(&got, "== %s\n%s", in.name, renderConstprop(t, in.files))
	}
	path := filepath.Join("testdata", "constprop.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("constprop output drifted from %s at line %d:\ngot:  %s\nwant: %s\nIf the change is intentional, refresh with UPDATE_GOLDEN=1.",
					path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("constprop output drifted from %s: %d lines, want %d. If the change is intentional, refresh with UPDATE_GOLDEN=1.",
			path, len(gl), len(wl))
	}
}

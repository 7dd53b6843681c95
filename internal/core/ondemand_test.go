package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/framework"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
	"flowdroid/internal/securibench"
)

// TestOnDemandEqualsEager: an app or a plain-Java SecuriBench program
// whose method bodies are parsed on first use is analyzed exactly as the
// same input with every body parsed right after load: byte-identical
// report with path witnesses, the same status and the same counters apart
// from the parsed-body count.
func TestOnDemandEqualsEager(t *testing.T) {
	ctx := context.Background()
	// load builds an input with its bodies unparsed and returns its
	// program and the run that analyzes it.
	type load func() (*ir.Program, func() (*core.Result, error), error)
	type input struct {
		name string
		load load
	}
	app := func(files map[string]string, opts core.Options) load {
		return func() (*ir.Program, func() (*core.Result, error), error) {
			a, err := apk.LoadFiles(files)
			if err != nil {
				return nil, nil, err
			}
			return a.Program, func() (*core.Result, error) { return core.AnalyzeApp(ctx, a, opts) }, nil
		}
	}
	java := func(c securibench.Case) load {
		return func() (*ir.Program, func() (*core.Result, error), error) {
			prog := framework.NewProgram()
			if err := irtext.DeclareInto(prog, securibench.Source(c), c.Name+".ir"); err != nil {
				return nil, nil, err
			}
			if err := prog.Link(); err != nil {
				return nil, nil, err
			}
			return prog, func() (*core.Result, error) {
				return core.AnalyzeProgram(ctx, prog, securibench.Entries(prog), securibench.Options())
			}, nil
		}
	}
	sms := core.DefaultOptions()
	sms.Query = core.Query{Sinks: []string{"sms"}}
	inputs := []input{{"insecurebank", app(insecurebank.Files, core.DefaultOptions())}}
	for _, c := range append(droidbench.Cases(), droidbench.ExtraCases()...) {
		inputs = append(inputs, input{"droidbench/" + c.Name, app(c.Files, core.DefaultOptions())})
	}
	for _, w := range []struct {
		profile appgen.Profile
		n       int
	}{{appgen.Play, 3}, {appgen.Stress, 2}, {appgen.Reflection, 4}, {appgen.Malware, 3}} {
		for _, a := range appgen.GenerateCorpus(w.profile, w.n, 1) {
			inputs = append(inputs, input{a.Name, app(a.Files, core.DefaultOptions())})
			if w.profile.Name == appgen.Malware.Name {
				inputs = append(inputs, input{a.Name + " sms", app(a.Files, sms)})
			}
		}
	}
	for _, c := range securibench.Cases() {
		inputs = append(inputs, input{"securibench/" + c.Name, java(c)})
	}
	for _, in := range inputs {
		var reports [2][]byte
		var counters [2]core.Counters
		for i, eager := range []bool{false, true} {
			prog, run, err := in.load()
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			if eager {
				if err := prog.ParseAll(); err != nil {
					t.Fatalf("%s: %v", in.name, err)
				}
			}
			res, err := run()
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			if res.Status != core.Complete {
				t.Fatalf("%s (eager %t): status %v", in.name, eager, res.Status)
			}
			if reports[i], err = json.Marshal(res.Taint.Report()); err != nil {
				t.Fatal(err)
			}
			counters[i] = res.Counters
		}
		if !bytes.Equal(reports[0], reports[1]) {
			t.Errorf("%s: on-demand report\n%s\ndiffers from eager\n%s", in.name, reports[0], reports[1])
		}
		if counters[1].BodiesParsed != counters[1].Bodies {
			t.Errorf("%s: eager run parsed %d of %d bodies", in.name, counters[1].BodiesParsed, counters[1].Bodies)
		}
		counters[0].BodiesParsed = counters[1].BodiesParsed
		if counters[0] != counters[1] {
			t.Errorf("%s: on-demand counters %+v, eager %+v", in.name, counters[0], counters[1])
		}
	}
}

// malformedApp is a one-activity app whose given method holds body; the
// activity's onCreate calls used() and nothing calls unused().
func malformedApp(method, body string) map[string]string {
	bodies := map[string]string{
		"used":   "{\n    return\n  }",
		"unused": "{\n    return\n  }",
	}
	bodies[method] = body
	return map[string]string{
		"AndroidManifest.xml": `<manifest package="com.bad"><application>
			<activity android:name=".Main"/></application></manifest>`,
		"classes.ir": "class com.bad.Main extends android.app.Activity {\n" +
			"  method onCreate(b: android.os.Bundle): void {\n    this.used()\n  }\n" +
			"  method used(): void " + bodies["used"] + "\n" +
			"  method unused(): void " + bodies["unused"] + "\n}\n",
	}
}

// TestMalformedBodies pins which errors fail the load and which surface
// on first use. A lexical error in any body fails apk.Load with the
// lexer's message and position. A grammar error in a body no pass reads
// leaves the analysis complete; in a body a pass reads, the run ends
// Recovered with the positioned parse error; under -lint, the verify pass
// parses every body first and the run ends with that error.
func TestMalformedBodies(t *testing.T) {
	// used() holds its statement on line 6 of classes.ir, unused() on 9.
	const grammar = "{\n    if x goto L\n  }"
	ctx := context.Background()

	t.Run("lexical error fails the load", func(t *testing.T) {
		_, err := apk.LoadFiles(malformedApp("unused", "{\n    x = \"abc\n  }"))
		if err == nil || !strings.Contains(err.Error(), "classes.ir:9: unterminated string literal") {
			t.Fatalf("load error %v, want classes.ir:9: unterminated string literal", err)
		}
	})

	t.Run("grammar error in an unread body", func(t *testing.T) {
		res, err := core.AnalyzeFiles(ctx, malformedApp("unused", grammar), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != core.Complete {
			t.Fatalf("status %v (%v), want Complete", res.Status, res.Failure)
		}
		if c := res.Counters; c.BodiesParsed >= c.Bodies {
			t.Errorf("parsed %d of %d bodies; unused() must stay unparsed", c.BodiesParsed, c.Bodies)
		}
	})

	t.Run("grammar error in a read body", func(t *testing.T) {
		res, err := core.AnalyzeFiles(ctx, malformedApp("used", grammar), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != core.Recovered || res.Failure == nil {
			t.Fatalf("status %v, want Recovered", res.Status)
		}
		if msg := res.Failure.Error(); !strings.Contains(msg, "classes.ir:6: conditions are opaque") {
			t.Errorf("failure %q lacks the positioned parse error", msg)
		}
		if res.Failure.Stage == "" {
			t.Error("failure names no stage")
		}
	})

	t.Run("lint parses every body", func(t *testing.T) {
		opts := core.DefaultOptions()
		opts.Lint = true
		_, err := core.AnalyzeFiles(ctx, malformedApp("unused", grammar), opts)
		if err == nil || !strings.Contains(err.Error(), "classes.ir:9: conditions are opaque") {
			t.Fatalf("error %v, want classes.ir:9: conditions are opaque", err)
		}
	})
}

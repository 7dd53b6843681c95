package constprop_test

// FuzzConstprop drives arbitrary IR text through parse → link →
// constprop.Analyze → Materialize. Text the parser or linker rejects is
// skipped; for everything else the pass must not panic, must not report
// Truncated without a deadline, must classify two fresh parses of the
// same text identically, and a second Materialize of the same result
// must reuse the bridges the first one generated. Seeds are DroidBench's
// Reflection1–4 and a few generated reflection apps.

import (
	"context"
	"slices"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/constprop"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
	"flowdroid/internal/scene"
)

func FuzzConstprop(f *testing.F) {
	for _, c := range droidbench.ReflectionCases() {
		f.Add(c.Files["classes.ir"])
	}
	for _, a := range appgen.GenerateCorpus(appgen.Reflection, 4, 1) {
		f.Add(a.Files["classes.ir"])
	}
	// Small programs mutate into other valid programs far more often.
	f.Add("class T {\n  method init(): void { return }\n  method go(s: java.lang.String): void { return }\n}\nclass M {\n  static method name(): java.lang.String {\n    n = \"T\"\n    return n\n  }\n  static method run(x: java.lang.String): void {\n    cn = M.name()\n    c = java.lang.Class.forName(cn)\n    o = c.newInstance()\n    m = c.getMethod(\"go\")\n    r = m.invoke(o, x)\n    return\n  }\n}\n")
	f.Add("class M {\n  static method run(): void {\n    sb = new java.lang.StringBuilder()\n    a = sb.append(\"M\")\n  top:\n    if * goto done\n    a = sb.append(\"x\")\n    goto top\n  done:\n    cn = sb.toString()\n    c = java.lang.Class.forName(cn)\n    return\n  }\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		load := func() *ir.Program {
			prog := framework.NewProgram()
			if irtext.ParseInto(prog, src, "fuzz.ir") != nil || prog.Link() != nil {
				return nil
			}
			return prog
		}
		prog := load()
		if prog == nil {
			return // rejecting invalid text is correct behaviour
		}
		res := constprop.Analyze(context.Background(), scene.New(prog))
		again := constprop.Analyze(context.Background(), scene.New(load()))
		if res.Truncated || again.Truncated {
			t.Fatal("analysis truncated under a background context")
		}
		if a, b := constprop.Render(res), constprop.Render(again); a != b {
			t.Fatalf("two parses of the same text classify differently:\n%s\nvs\n%s", a, b)
		}

		first, err := res.Materialize(prog)
		if err != nil {
			return // e.g. the text declares its own bridges class
		}
		bridges := 0
		if c := prog.Class(constprop.BridgesClass); c != nil {
			bridges = len(c.Methods())
		}
		second, err := res.Materialize(prog)
		if err != nil {
			t.Fatalf("second Materialize failed: %v", err)
		}
		if len(first) != len(second) {
			t.Fatalf("second Materialize returned %d edge sites, first %d", len(second), len(first))
		}
		for s, ms := range first {
			if !slices.Equal(ms, second[s]) {
				t.Fatalf("second Materialize returned other bridges for %v", s)
			}
		}
		if c := prog.Class(constprop.BridgesClass); c != nil && len(c.Methods()) != bridges {
			t.Fatalf("second Materialize grew the bridges class from %d to %d methods", bridges, len(c.Methods()))
		}
	})
}

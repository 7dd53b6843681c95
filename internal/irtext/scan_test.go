package irtext_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/irtext"
	"flowdroid/internal/securibench"
)

// shippedSources returns every .ir file the repository ships or
// generates: InsecureBank, DroidBench and its extensions, the SecuriBench
// cases, and one seed-1 app of each appgen profile.
func shippedSources() map[string]string {
	out := make(map[string]string)
	add := func(prefix string, files map[string]string) {
		for name, src := range files {
			if strings.HasSuffix(name, ".ir") {
				out[prefix+"/"+name] = src
			}
		}
	}
	add("insecurebank", insecurebank.Files)
	for _, c := range append(droidbench.Cases(), droidbench.ExtraCases()...) {
		add("droidbench/"+c.Name, c.Files)
	}
	for _, c := range securibench.Cases() {
		out["securibench/"+c.Name+".ir"] = c.Source
	}
	for _, p := range []appgen.Profile{appgen.Play, appgen.Stress, appgen.Reflection, appgen.Malware} {
		for _, app := range appgen.GenerateCorpus(p, 1, 1) {
			add(app.Name, app.Files)
		}
	}
	return out
}

// TestScanAgreesWithParse: on every shipped source, and on damaged
// copies of each small one (a byte dropped, doubled or swapped for a
// delimiter at many offsets), every body the declaration pass scans
// parses from its span exactly as an eager parse of the whole file does:
// same statements on the same lines, same error, same end, the scan's
// facts (empty, resource names, reflective calls) hold for the parsed
// statements, and the mention test admits every callee and field name
// they carry (constructor sugar's init included).
func TestScanAgreesWithParse(t *testing.T) {
	srcs := shippedSources()
	// Bodies at the edges of the scan: only local declarations, a
	// trailing label, braces and quotes inside strings and comments,
	// escapes, negative numbers, resource names, reflective calls, and
	// non-ASCII identifiers.
	for i, body := range []string{
		"{}",
		"{ local x: a.B }",
		"{ local x: a.b.C[][]  local y: int }",
		"{ local x: a.B  x = new a.B }",
		"{ nop }",
		"{ L: }",
		"{ local x: int  L: }",
		"{ return }",
		"{ x = \"a\\\"}\"  // }\n }",
		"{ x = \"tab\\t\"  y = -5  z = x + y }",
		"{ x = \"a\\nb\" }",
		"{ w = this.findViewById(@id/pwd)  this.setContentView(@layout/main.v2) }",
		"{ c = java.lang.Class.forName(s)  o = c.newInstance() }",
		"{ caf\xe9 = 1 }",
		"{ x = a->b }",
		"{ x = { } }",
		"{ local: int }",
		"{ local x: }",
	} {
		srcs[fmt.Sprintf("edge%02d.ir", i)] = "class A {\n  method m(s: java.lang.String): void " + body + "\n}\n"
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	bodies := 0
	for _, name := range names {
		src := srcs[name]
		n, err := irtext.CheckScan(src, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bodies += n
		if len(src) > 16<<10 {
			continue // the large generated apps repeat the small ones' shapes
		}
		step := max(1, len(src)/25)
		for off := 0; off < len(src); off += step {
			for _, damaged := range []string{
				src[:off] + src[off+1:],
				src[:off] + src[off:off+1] + src[off:],
				src[:off] + "}" + src[off+1:],
				src[:off] + "{" + src[off+1:],
				src[:off] + "\"" + src[off+1:],
				src[:off] + "local" + src[off:],
			} {
				if _, err := irtext.CheckScan(damaged, name); err != nil {
					t.Fatalf("%s damaged at offset %d: %v", name, off, err)
				}
			}
		}
	}
	if bodies < 500 {
		t.Errorf("checked %d bodies; the corpus holds over 500", bodies)
	}
}

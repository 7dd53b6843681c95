package apk_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/ir"
)

// TestConcurrentFirstUse: goroutines that read one freshly loaded app's
// bodies at once, each starting at a different method, parse every body
// exactly once between them and all see what a sequential parse yields,
// the mention test's answers included, asked while others parse. Run it
// under -race: the per-method once-guard is what it checks.
func TestConcurrentFirstUse(t *testing.T) {
	files := appgen.GenerateCorpus(appgen.Stress, 1, 1)[0].Files
	ref, err := apk.LoadFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Program.ParseAll(); err != nil {
		t.Fatal(err)
	}
	want := renderBodies(ref.Program.Methods(), 0)

	shared, err := apk.LoadFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	methods := shared.Program.Methods()
	const n = 4
	got := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = renderBodies(methods, i*len(methods)/n)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("goroutine %d saw bodies that differ from a sequential parse", i)
		}
	}
	if bodies, parsed := shared.Program.BodyCounts(); bodies == 0 || parsed != bodies {
		t.Errorf("parsed %d of %d bodies", parsed, bodies)
	}
}

// renderBodies renders the locals and statements of every method loaded
// with a pending body, and whether it may mention its own name and
// init, visiting them from index start on and wrapping around, in method
// order.
func renderBodies(methods []*ir.Method, start int) string {
	out := make([]string, len(methods))
	for k := range methods {
		i := (start + k) % len(methods)
		m := methods[i]
		if _, ok := m.Facts(); !ok {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s may mention %s, init: %t, %t\n", m, m.Name, m.MayMention(m.Name), m.MayMention("init"))
		for _, l := range m.Locals() {
			fmt.Fprintf(&b, "%s %s: %s\n", m, l.Name, l.Type)
		}
		for _, s := range m.Body() {
			fmt.Fprintf(&b, "%s line %d: %s\n", m, s.Line(), s)
		}
		out[i] = b.String()
	}
	return strings.Join(out, "")
}

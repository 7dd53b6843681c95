package pta_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/callgraph"
	"flowdroid/internal/core"
	"flowdroid/internal/pta"
	"flowdroid/internal/securibench"
)

// listing renders everything a call graph lists, in the order it lists
// it: the reachable methods, each call site's callees and each method's
// callers.
func listing(g *callgraph.Graph) string {
	var b strings.Builder
	for _, m := range g.Reachable() {
		fmt.Fprintf(&b, "%s <-", m)
		for _, s := range g.CallersOf(m) {
			fmt.Fprintf(&b, " %s#%d", s.Method(), s.Index())
		}
		b.WriteByte('\n')
		for i, s := range m.Body() {
			if ts := g.CalleesOf(s); len(ts) > 0 {
				fmt.Fprintf(&b, "  #%d ->", i)
				for _, t := range ts {
					fmt.Fprintf(&b, " %s", t)
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// TestGraphListingIsReproducible: points-to sets are walked in object-id
// order, so building the call graph again over the same program lists
// reachable methods, callees and callers in the same order every time.
// With sets kept as maps the order varied from build to build.
func TestGraphListingIsReproducible(t *testing.T) {
	const builds = 20
	check := func(name string, build func() *callgraph.Graph) {
		want := listing(build())
		for i := 1; i < builds; i++ {
			if got := listing(build()); got != want {
				t.Fatalf("%s: build %d lists the graph differently:\n%s\nvs\n%s", name, i, got, want)
			}
		}
	}
	ctx := context.Background()
	for _, c := range securibench.Cases() {
		prog, err := securibench.Program(c)
		if err != nil {
			t.Fatal(err)
		}
		entries := securibench.Entries(prog)
		check("securibench "+c.Name, func() *callgraph.Graph { return pta.Build(ctx, prog, entries...).Graph })
	}
	for _, app := range appgen.GenerateCorpus(appgen.Stress, 3, 1) {
		res, err := core.AnalyzeFiles(ctx, app.Files, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		check(app.Name, func() *callgraph.Graph { return pta.Build(ctx, res.App.Program, res.EntryPoint).Graph })
	}
}

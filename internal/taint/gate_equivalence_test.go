package taint_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/framework"
	"flowdroid/internal/securibench"
	"flowdroid/internal/taint"
)

// goldenPath pins, per input, the leak count and the SHA-256 of the
// Report() JSON, path witnesses included. It was written while a
// string-carrier alias gate still skipped the backward alias search at
// String/StringBuilder/StringBuffer receivers it proved report-neutral;
// every receiver gen now spawns its search, as in the paper, and must
// reproduce each line. Refresh it, when a report change is intentional,
// with
//
//	UPDATE_GOLDEN=1 go test ./internal/taint -run TestGateEquivalence
const goldenPath = "testdata/reports.golden"

// TestGateEquivalence: on every corpus the former alias gate was checked
// on — the carrier fixtures, DroidBench, SecuriBench, a stress corpus and
// the builder-heavy benchtaint corpus — the reports match the golden
// byte for byte.
func TestGateEquivalence(t *testing.T) {
	ctx := context.Background()
	g := loadGolden(t)

	t.Run("carriers", func(t *testing.T) {
		for _, f := range taint.CarrierFixtures {
			f := f
			t.Run(f.Name, func(t *testing.T) {
				g.check(t, "carriers/"+f.Name, taint.AnalyzeFixture(t, f.Src, taint.DefaultConfig()))
			})
		}
	})

	t.Run("droidbench", func(t *testing.T) {
		for _, c := range droidbench.Cases() {
			c := c
			t.Run(c.Name, func(t *testing.T) {
				g.check(t, "droidbench/"+c.Name, runApp(t, c.Files))
			})
		}
	})

	t.Run("securibench", func(t *testing.T) {
		for _, c := range securibench.Cases() {
			c := c
			t.Run(c.Name, func(t *testing.T) {
				prog, err := securibench.Program(c)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.AnalyzeProgram(ctx, prog, securibench.Entries(prog), securibench.Options())
				if err != nil {
					t.Fatal(err)
				}
				g.check(t, "securibench/"+c.Name, res.Taint)
			})
		}
	})

	corpus := func(name string, apps []appgen.App) {
		t.Run(name, func(t *testing.T) {
			leaks := 0
			for _, app := range apps {
				r := runApp(t, app.Files)
				leaks += len(r.DistinctSourceSinkPairs())
				g.check(t, name+"/"+app.Name, r)
			}
			if leaks == 0 {
				t.Fatalf("%s corpus found no leaks; the check would be vacuous", name)
			}
		})
	}
	corpus("stress", appgen.GenerateCorpus(appgen.Stress, 6, 42))
	corpus("benchtaint", appgen.GenerateCorpus(benchTaintProfile(), 4, 7))

	g.finish(t)
}

// TestSolverAllocs is the solver's absolute allocation ratchet, on the
// builder-heavy benchtaint corpus. With one path-edge table per
// analysis, dense per-method call-site memos, shared CFG edge lists, the
// framework's class model derived once per process, call-graph
// reachability walked on reused scratch and the built-in source/sink
// rules parsed once per process, the corpus measures ~68,800 heap
// allocations, and ~73,100 under -race, whose runtime allocates more;
// the bound is the -race count plus 5%. A run past it means the
// allocation diet regressed; raise it only with a measured
// justification.
//
// Not parallel: it reads process-wide malloc counters.
func TestSolverAllocs(t *testing.T) {
	apps := appgen.GenerateCorpus(benchTaintProfile(), 4, 7)
	// The framework base is parsed once per process, on first use. Load
	// it before measuring, whichever tests ran first.
	framework.NewProgram()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	alias, props, leaks := 0, 0, 0
	for _, app := range apps {
		r := runApp(t, app.Files)
		// Rendering the report is part of the measured run.
		if _, err := r.CanonicalJSON(); err != nil {
			t.Fatal(err)
		}
		leaks += len(r.DistinctSourceSinkPairs())
		alias += r.Stats.AliasQueries
		props += r.Stats.Propagations
	}
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs - mallocs0
	t.Logf("%d allocs; %d alias searches; %d propagations; %d leaks", mallocs, alias, props, leaks)

	if alias <= 0 {
		t.Error("no alias searches ran: the corpus stopped exercising builders")
	}
	if mallocs > 76_800 {
		t.Errorf("%d allocs exceed the 76,800 ratchet: the solver allocation diet regressed", mallocs)
	}
}

// golden is the loaded report golden plus, under UPDATE_GOLDEN, the
// lines a run produced.
type golden struct {
	want   map[string]string
	got    map[string]string
	update bool
}

func loadGolden(t *testing.T) *golden {
	t.Helper()
	g := &golden{want: map[string]string{}, got: map[string]string{}, update: os.Getenv("UPDATE_GOLDEN") != ""}
	if g.update {
		return g
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, rest, ok := strings.Cut(sc.Text(), " "); ok {
			g.want[key] = rest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return g
}

// check compares r's report against the golden line for key.
func (g *golden) check(t *testing.T, key string, r *taint.Results) {
	t.Helper()
	js, err := json.Marshal(r.Report())
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("leaks=%d sha256=%x", len(r.DistinctSourceSinkPairs()), sha256.Sum256(js))
	g.got[key] = line
	if !g.update && g.want[key] != line {
		t.Errorf("%s: %s, golden %q; report:\n%s", key, line, g.want[key], js)
	}
}

// finish writes the golden under UPDATE_GOLDEN; otherwise it requires
// every golden line to have been checked.
func (g *golden) finish(t *testing.T) {
	t.Helper()
	if !g.update {
		for key := range g.want {
			if _, ok := g.got[key]; !ok && !t.Failed() {
				t.Errorf("golden input %s was not analyzed", key)
			}
		}
		return
	}
	keys := make([]string, 0, len(g.got))
	for key := range g.got {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, key := range keys {
		fmt.Fprintf(&sb, "%s %s\n", key, g.got[key])
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runApp analyzes one app through the full pipeline under the default
// options and requires a completed run.
func runApp(t *testing.T, files map[string]string) *taint.Results {
	t.Helper()
	res, err := core.AnalyzeFiles(context.Background(), files, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Complete {
		t.Fatalf("status %v, want complete", res.Status)
	}
	return res.Taint
}

// benchTaintProfile is the stress profile enlarged so the solver, and
// its StringBuilder-laundering helpers, dominate.
func benchTaintProfile() appgen.Profile {
	p := appgen.Stress
	p.Name = "benchtaint"
	p.Helpers = appgen.MinMax(40, 40)
	p.NoiseMethods = appgen.MinMax(10, 10)
	p.NoiseStmts = appgen.MinMax(20, 30)
	return p
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"flowdroid/internal/apk"
	"flowdroid/internal/callbacks"
	"flowdroid/internal/cfg"
	"flowdroid/internal/cone"
	"flowdroid/internal/constprop"
	"flowdroid/internal/framework"
	"flowdroid/internal/irtext"
	"flowdroid/internal/lifecycle"
	"flowdroid/internal/pta"
	"flowdroid/internal/scene"
	"flowdroid/internal/sourcesink"
	"flowdroid/internal/summarystore"
	"flowdroid/internal/taint"
)

// span is one timed call. Each app has a root span named "app" whose
// children are the layer calls; the apk probes are roots of their own,
// outside the app span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	App     int    `json:"app"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Allocs counts heap objects allocated during the span, read from
	// runtime/metrics. That needs no stop-the-world, but the runtime counts
	// objects when the allocator refills a span, so one span's count is
	// approximate; means over many spans are not.
	Allocs uint64 `json:"allocs"`
}

// tracer keeps spans in memory; they are written once, at the end.
type tracer struct {
	start  time.Time
	spans  []span
	sample [2]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{start: time.Now()}
	t.sample[0].Name = "/gc/heap/allocs:objects"
	t.sample[1].Name = "/gc/heap/tiny/allocs:objects"
	return t
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample[:])
	return t.sample[0].Value.Uint64() + t.sample[1].Value.Uint64()
}

// begin opens a span and returns its id. The allocation counter is read
// before the clock and after it in end, so the reads are not timed.
func (t *tracer) begin(app, parent int, name string) int {
	id := len(t.spans)
	a := t.allocs()
	t.spans = append(t.spans, span{ID: id, Parent: parent, App: app, Name: name, Allocs: a, StartNS: int64(time.Since(t.start))})
	return id
}

func (t *tracer) end(id int) {
	sp := &t.spans[id]
	sp.EndNS = int64(time.Since(t.start))
	sp.Allocs = t.allocs() - sp.Allocs
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceNamespace is the summary-store namespace of the traced run. The
// pipeline's own namespace is a private fingerprint of its options, so
// the traced run seeds a store of its own.
const traceNamespace = "flowdroid-bench-trace"

// counts are one traced app's deterministic layer counters, keyed by
// per-layer metric name (plus the denominators of the ratio metrics).
type counts map[string]int

// traceApp analyzes one app by calling each layer's public function in
// internal/core/pipeline.go's order, under core.DefaultOptions plus the
// workload's query and summary store, with one span per call.
func (r *runner) traceApp(t *tracer, i int, files map[string]string, store *summarystore.Store) (*taint.Results, counts, error) {
	ctx := context.Background()
	n := counts{}
	root := t.begin(i, -1, "app")
	defer t.end(root)

	sp := t.begin(i, root, "apk")
	app, err := apk.LoadFiles(files)
	t.end(sp)
	if err != nil {
		return nil, n, err
	}

	sp = t.begin(i, root, "scene")
	sc := scene.New(app.Program)
	t.end(sp)

	sp = t.begin(i, root, "sourcesink")
	mgr := sourcesink.Default(sc)
	mgr.AttachApp(app)
	if len(r.c.w.sinks) > 0 {
		err = mgr.RestrictSinks(r.c.w.sinks)
	}
	t.end(sp)
	if err != nil {
		return nil, n, err
	}

	sp = t.begin(i, root, "constprop")
	cp := constprop.Analyze(ctx, sc)
	edges, err := cp.Materialize(app.Program)
	if err == nil && len(edges) > 0 {
		sc.Refresh()
	}
	t.end(sp)
	if err != nil {
		return nil, n, err
	}
	n["constprop.resolved_sites"] = cp.Report.ResolvedSites
	n["constprop.unresolved_sites"] = len(cp.Report.Unresolved)

	var cn *cone.Cone
	if len(r.c.w.sinks) > 0 {
		sp = t.begin(i, root, "cone")
		cn = cone.BuildWithExtra(ctx, sc, mgr, edges)
		t.end(sp)
		n["cone.methods"] = cn.Methods()
	}

	sp = t.begin(i, root, "callbacks")
	cbs := callbacks.DiscoverWith(ctx, app, sc)
	t.end(sp)

	sp = t.begin(i, root, "lifecycle")
	lopts := lifecycle.DefaultOptions()
	if cn != nil {
		var skip []string
		for _, comp := range lifecycle.ModeledComponents(app, lopts) {
			if cn.ComponentSkippable(cbs.EntryPoints(sc, comp)) {
				skip = append(skip, comp.Class)
			}
		}
		sort.Strings(skip)
		lopts.SkipComponents = skip
	}
	entry, err := lifecycle.GenerateWith(app, cbs, sc, lopts)
	if err == nil {
		sc.Refresh()
	}
	t.end(sp)
	if err != nil {
		return nil, n, err
	}
	n["cone.skipped_components"] = len(lopts.SkipComponents)
	n["lifecycle.dummy_main_stmts"] = len(entry.Body())

	sp = t.begin(i, root, "pta")
	p := pta.BuildWithExtra(ctx, sc, edges, entry)
	t.end(sp)
	n["pta.propagations"] = p.Propagations
	n["pta.call_edges"] = p.Graph.NumEdges()
	n["pta.reachable_methods"] = len(p.Graph.Reachable())

	sp = t.begin(i, root, "cfg")
	icfg := cfg.NewICFG(sc, p.Graph)
	t.end(sp)

	tc := taint.DefaultConfig()
	if cn != nil {
		tc.Cone = &taint.Cone{Relevant: cn.Relevant, Methods: cn.Methods(), SkippedComponents: len(lopts.SkipComponents)}
	}
	var sess *summarystore.Session
	if store != nil {
		sp = t.begin(i, root, "summarystore")
		sess = store.Session(app.Package, traceNamespace, summarystore.HashMethods(p.Graph))
		t.end(sp)
		tc.Summaries = sess
	}

	sp = t.begin(i, root, "taint")
	res := taint.Analyze(ctx, icfg, mgr, tc, entry)
	t.end(sp)

	if sess != nil {
		sp = t.begin(i, root, "summarystore")
		err = sess.Flush()
		t.end(sp)
	}
	st := res.Stats
	n["taint.propagations"] = st.Propagations
	n["taint.fw_edges"] = st.ForwardEdges
	n["taint.bw_edges"] = st.BackwardEdges
	n["taint.alias_queries"] = st.AliasQueries
	n["taint.alias_gated"] = st.GatedAliasQueries
	n["taint.alias_searches"] = st.AliasQueries + st.GatedAliasQueries
	n["taint.summaries"] = st.Summaries
	n["taint.peak_abstractions"] = st.PeakAbstractions
	if ss := st.Store; ss != nil {
		n["summarystore.hits"] = ss.Hits
		n["summarystore.misses"] = ss.Misses
		n["summarystore.invalidated"] = ss.Invalidated
		n["summarystore.lookups"] = ss.Hits + ss.Misses + ss.Invalidated + ss.Corrupt
		n["summarystore.methods_reused"] = ss.MethodsReused
		n["summarystore.methods_walked"] = ss.MethodsReused + ss.MethodsExplored
	}
	return res, n, err
}

// probeLoad times apk.LoadFiles' parts on a fresh program: the framework
// stubs, parsing the app's .ir files, and linking. The probes run outside
// the app span.
func probeLoad(t *tracer, i int, files map[string]string) error {
	sp := t.begin(i, -1, "apk.framework")
	prog := framework.NewProgram()
	t.end(sp)
	var irFiles []string
	for p := range files {
		if strings.HasSuffix(p, ".ir") {
			irFiles = append(irFiles, p)
		}
	}
	sort.Strings(irFiles)
	sp = t.begin(i, -1, "apk.parse")
	var err error
	for _, p := range irFiles {
		if err = irtext.ParseInto(prog, files[p], p); err != nil {
			break
		}
	}
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin(i, -1, "apk.link")
	err = prog.Link()
	t.end(sp)
	return err
}

// traceRun is what the traced passes recorded.
type traceRun struct {
	t *tracer
	// passes[p] is the index of pass p's first span.
	passes []int
	// counts sums the layer counters over the first traced pass.
	counts counts
	n      int
	// calib holds the reference task's times, measured before each pass.
	calib []time.Duration
}

// traced runs traced passes until the budget is spent. Each app's
// decomposed report and propagation count must equal core.AnalyzeApp's.
func (r *runner) traced(budget time.Duration) (*traceRun, error) {
	var store *summarystore.Store
	var snap *storeSnapshot
	if r.c.w.update {
		// Seed the traced run's own store through the decomposed path.
		store = summarystore.Open(filepath.Join(r.c.workDir, "trace-store"))
		seedTracer := newTracer()
		for i, files := range r.corp.seedFiles {
			if _, _, err := r.traceApp(seedTracer, i, files, store); err != nil {
				return nil, fmt.Errorf("%s: seeding the traced store: %w", r.corp.names[i], err)
			}
		}
		var err error
		if snap, err = snapshotStore(store.Dir()); err != nil {
			return nil, err
		}
	}
	tr := &traceRun{t: newTracer(), counts: counts{}, n: r.c.n}
	start := time.Now()
	for p := 0; p < r.c.minPasses || time.Since(start) < budget; p++ {
		if snap != nil {
			if err := snap.restore(); err != nil {
				return nil, err
			}
		}
		tr.calib = append(tr.calib, calibrate()...)
		tr.passes = append(tr.passes, len(tr.t.spans))
		for _, i := range r.passOrder(p) {
			files := r.corp.files[i]
			res, n, err := r.traceApp(tr.t, i, files, store)
			r.attempted++
			if err == nil {
				err = probeLoad(tr.t, i, files)
			}
			var js []byte
			if err == nil {
				js, err = res.CanonicalJSON()
			}
			switch {
			case err != nil:
				r.fail(i, "traced analysis: %v", err)
			case res.Status != taint.Completed || !r.oracle.matches(res, r.corp.want[i]):
				r.fail(i, "traced analysis: status %v or leaks differ from the planted ones", res.Status)
			case !bytes.Equal(js, r.refJSON[i]) || res.Stats.Propagations != r.refProps[i]:
				r.fail(i, "decomposed report differs from core.AnalyzeApp's (propagations %d vs %d)",
					res.Stats.Propagations, r.refProps[i])
			}
			if p == 0 {
				for k, v := range n {
					tr.counts[k] += v
				}
			}
		}
	}
	return tr, nil
}

// layers are the traced layers, in pipeline order. The cone and the
// summary store run on one workload each; they report a share but no time
// per app, so that no workload prints a time that is zero on every run.
var layers = []struct {
	name     string
	timeless bool
}{
	{name: "apk"}, {name: "scene"}, {name: "sourcesink"}, {name: "constprop"},
	{name: "cone", timeless: true}, {name: "callbacks"}, {name: "lifecycle"},
	{name: "pta"}, {name: "cfg"}, {name: "summarystore", timeless: true}, {name: "taint"},
}

// countMetrics are the per-app means of the traced layers' counters.
var countMetrics = []string{
	"constprop.resolved_sites", "constprop.unresolved_sites",
	"cone.methods", "cone.skipped_components",
	"lifecycle.dummy_main_stmts",
	"pta.propagations", "pta.call_edges", "pta.reachable_methods",
	"summarystore.hits", "summarystore.misses", "summarystore.invalidated",
	"taint.propagations", "taint.fw_edges", "taint.bw_edges", "taint.alias_queries",
	"taint.alias_gated", "taint.summaries", "taint.peak_abstractions",
}

// metrics turns the traced passes into the per-layer metrics. A layer
// span has no children, so its duration is its self time; the app span's
// self time is reported as unattributed. Each time and allocation count
// is the median over traced passes of the pass's per-app mean; times are
// scaled to the reference host like the end-to-end ones.
func (tr *traceRun) metrics(timed timing) map[string]metric {
	n, scale := float64(tr.n), hostScale(tr.calib)
	passes := len(tr.passes)
	msOf, allocsOf := map[string][]float64{}, map[string][]float64{}
	unattributed := make([]float64, passes)
	for p, first := range tr.passes {
		last := len(tr.t.spans)
		if p+1 < passes {
			last = tr.passes[p+1]
		}
		for _, sp := range tr.t.spans[first:last] {
			if msOf[sp.Name] == nil {
				msOf[sp.Name], allocsOf[sp.Name] = make([]float64, passes), make([]float64, passes)
			}
			d := ms(time.Duration(sp.EndNS-sp.StartNS)) * scale / n
			msOf[sp.Name][p] += d
			allocsOf[sp.Name][p] += float64(sp.Allocs) / n
			switch {
			case sp.Name == "app":
				unattributed[p] += d
			case sp.Parent >= 0:
				unattributed[p] -= d
			}
		}
	}
	med := func(perPass map[string][]float64, name string) float64 {
		if v := perPass[name]; v != nil {
			return median(v)
		}
		return 0 // the layer did not run on this workload
	}
	ratio := func(a, b string) float64 {
		if tr.counts[b] == 0 {
			return 0
		}
		return float64(tr.counts[a]) / float64(tr.counts[b])
	}

	wall := med(msOf, "app")
	m := map[string]metric{}
	for _, l := range layers {
		self := med(msOf, l.name)
		if !l.timeless {
			m[l.name+".ms_per_app"] = metric{self, "ms"}
		}
		m[l.name+".share"] = metric{self / wall, "fraction"}
		m[l.name+".allocs_per_app"] = metric{med(allocsOf, l.name), "allocs"}
	}
	m["apk.framework_ms"] = metric{med(msOf, "apk.framework"), "ms"}
	m["apk.parse_ms"] = metric{med(msOf, "apk.parse"), "ms"}
	m["apk.link_ms"] = metric{med(msOf, "apk.link"), "ms"}
	u := median(unattributed)
	m["unattributed.ms_per_app"] = metric{u, "ms"}
	m["unattributed.share"] = metric{u / wall, "fraction"}
	m["trace_overhead"] = metric{wall/(median(timed.passMeans())*hostScale(timed.calib)) - 1, "fraction"}
	m["core.pass_coverage"] = metric{float64(timed.passTime) / float64(timed.latency), "fraction"}
	for _, name := range countMetrics {
		m[name] = metric{float64(tr.counts[name]) / n, "count"}
	}
	m["taint.alias_gate_ratio"] = metric{ratio("taint.alias_gated", "taint.alias_searches"), "fraction"}
	m["summarystore.hit_ratio"] = metric{ratio("summarystore.hits", "summarystore.lookups"), "fraction"}
	m["summarystore.reuse_rate"] = metric{ratio("summarystore.methods_reused", "summarystore.methods_walked"), "fraction"}
	return m
}

package taint

import (
	"context"
	"fmt"
	"slices"
	"time"

	"flowdroid/internal/cfg"
	"flowdroid/internal/ir"
	"flowdroid/internal/metrics"
	"flowdroid/internal/sourcesink"
)

// engine holds the two cooperating IFDS solvers. Both operate on path
// edges ⟨sp, d1⟩ → ⟨n, d2⟩ (d1 is the context fact at the start point of
// n's method); the forward solver implements Algorithm 1 of the paper,
// the backward alias solver Algorithm 2. The handover discipline:
//
//   - Forward, at a heap write that creates a new taint: spawn the
//     backward solver with the *same path edge context* (context
//     injection, Figure 3), the new fact marked inactive with the store
//     as its activation statement.
//   - Backward, at each assignment: inject the computed fact into the
//     forward solver at that statement (the forward transfer functions
//     then derive the downstream aliases).
//   - Backward, at a call: descend into callees and inject the caller
//     context into the forward solver's incoming set, so the forward
//     analysis spawned at the callee's header later returns only into
//     the right callers.
//   - Backward, at a method's first statement: hand the edge to the
//     forward solver and stop — the backward solver never returns into
//     callers itself.
//
// Both directions feed one LIFO work queue, drained on the calling
// goroutine. An analysis is single-threaded: the unit of parallelism is
// the app (the service runs several analyses at once), so no engine
// state is shared and none of it is synchronized. Every iteration that
// feeds the queue walks slices in a fixed order — callees and seeded
// methods in ir.CompareMethods order, callers in registration order — so
// one configuration over one app always explores in the same order and
// yields the same report, path witnesses and counters included —
// truncated runs too.
type engine struct {
	icfg *cfg.ICFG
	mgr  *sourcesink.Manager
	conf Config

	in   *interner
	ai   *absInterner
	zero *Abstraction

	// methods holds each visited method's dense solver state; lastMethod
	// and lastState cache the most recent lookup, since consecutive path
	// edges mostly stay inside one method.
	methods    map[*ir.Method]*methodState
	lastMethod *ir.Method
	lastState  *methodState

	// incoming and endSum pair caller contexts with end summaries:
	// whichever of the two arrives second applies the pair, so every
	// (caller, summary) pair is applied exactly once.
	incoming map[methodCtx]*callers
	endSum   map[methodCtx][]exitRec

	leaks    []*Leak
	leakSeen map[leakKey]bool

	actCache map[actKey]bool

	// sumDecision memoizes the per-context summary-store decision; nil
	// when no summary session is configured.
	sumDecision map[methodCtx]sumDec
	// leakAttr attributes every leak to the method context whose subtree
	// it was found in (before global deduplication — a context's record
	// must carry the leak even when another context reported it first).
	// nil when no summary session is configured.
	leakAttr map[methodCtx]map[leakKey]*Leak

	// entrySet marks the analysis entry methods (the synthetic lifecycle
	// mains): they drive the seeding, have no callers, and so can never
	// be served from a summary store — the reuse stats exclude them.
	entrySet map[*ir.Method]bool

	// srcRecs interns SourceRecords by (statement, source rule).
	// Abstractions are interned by a key that includes the *SourceRecord
	// pointer (absKey in abstraction.go), so the same conceptual source
	// must always yield the same record: a fresh allocation per
	// flow-function evaluation would make abstraction identity — and with
	// it Stats.PeakAbstractions — depend on how often a source happened
	// to be re-evaluated.
	srcRecs map[srcKey]*SourceRecord

	stats engineStats

	// aliasHist, when metrics are enabled, times each alias-search spawn;
	// nil otherwise so the disabled path is one pointer check.
	aliasHist *metrics.Histogram
	rec       *metrics.Recorder

	// idxFields interns the pseudo-fields that model constant array
	// indices when ArrayIndexSensitive is on.
	idxFields map[int64]*ir.Field
	idxClass  *ir.Class

	q workQueue
}

// engineStats are the live counters; run copies them into the exported
// Stats.
type engineStats struct {
	propagations  int
	forwardEdges  int
	backwardEdges int
	aliasQueries  int
	summaries     int

	// Summary-store outcome counters, one per distinct method context.
	storeHits        int
	storeMisses      int
	storeInvalidated int
	storeCorrupt     int
	storeUncacheable int
}

type item struct {
	n      ir.Stmt
	d1, d2 *Abstraction
}

// task is one queued path-edge processing step, tagged with the solver
// direction it belongs to.
type task struct {
	backward bool
	item
}

// workQueue is the LIFO worklist both solvers feed, plus how the run
// ended: Completed until stop records an abort reason (cancellation,
// exhausted budget, leak cap).
type workQueue struct {
	items  []task
	status Status
	// depth, when metrics are enabled, tracks the live queue depth (and
	// with it the high-water mark); nil otherwise — Gauge methods no-op
	// on nil, so the disabled cost is one predictable branch.
	depth *metrics.Gauge
}

func (q *workQueue) push(t task) {
	q.items = append(q.items, t)
	q.depth.Add(1)
}

// stop aborts the run with the given status; the first reason wins.
func (q *workQueue) stop(st Status) {
	if q.status == Completed {
		q.status = st
	}
}

// aborted reports whether stop was called.
func (q *workQueue) aborted() bool { return q.status != Completed }

// methodState is the solver's dense per-method record: every table the
// hot loop consults per statement, as a slice indexed by Stmt.Index().
// It is created on the first lookup of its method, and each table is
// allocated on first use, so a method the backward solver never enters
// carries no backward table.
type methodState struct {
	// cfg is the method's CFG; nil when the engine has no ICFG (the
	// whitebox tests that drive propagation directly).
	cfg *cfg.MethodCFG
	// size is the method's body length, the length of every table.
	size int
	// fw and bw are the two directions' path edges ⟨d1⟩ → ⟨n, d2⟩ at
	// each statement n (the jump tables).
	fw, bw []edgeSet
	// sites memoizes per-call-site static facts (resolved wrapper rules,
	// bodied callees, stub dispatch, sink rule); see callsite.go.
	sites []*callSite
}

// edgeSet is one statement's path edges in one direction, keyed by
// edgeKey.
type edgeSet map[uint64]struct{}

// edgeKey packs the path edge ⟨d1⟩ → ⟨d2⟩ into one map key.
func edgeKey(d1, d2 *Abstraction) uint64 { return uint64(d1.id)<<32 | uint64(d2.id) }

// insertEdge adds the path edge d1 → d2 at statement index i to the jump
// table *t of a method with size statements, allocating the table and
// the statement's set on first use, and reports whether it was novel.
func insertEdge(t *[]edgeSet, size, i int, d1, d2 *Abstraction) bool {
	if *t == nil {
		*t = make([]edgeSet, size)
	}
	set := (*t)[i]
	if set == nil {
		// Most statements accumulate a handful of edges; pre-sizing the
		// set skips the first grow-and-rehash cycles.
		set = make(edgeSet, 8)
		(*t)[i] = set
	}
	k := edgeKey(d1, d2)
	if _, ok := set[k]; ok {
		return false
	}
	set[k] = struct{}{}
	return true
}

// stateOf returns m's solver state, creating it on first use.
func (e *engine) stateOf(m *ir.Method) *methodState {
	if m == e.lastMethod {
		return e.lastState
	}
	ms := e.methods[m]
	if ms == nil {
		ms = &methodState{size: len(m.Body())}
		if e.icfg != nil {
			ms.cfg = e.icfg.CFGOf(m)
		}
		e.methods[m] = ms
	}
	e.lastMethod, e.lastState = m, ms
	return ms
}

// succsOf returns the intraprocedural successors of n (the return sites
// when n is a call).
func (e *engine) succsOf(n ir.Stmt) []ir.Stmt { return e.stateOf(n.Method()).cfg.Succs(n) }

// predsOf returns the intraprocedural predecessors of n.
func (e *engine) predsOf(n ir.Stmt) []ir.Stmt { return e.stateOf(n.Method()).cfg.Preds(n) }

type methodCtx struct {
	m  *ir.Method
	d1 *Abstraction
}

type callerCtx struct {
	site ir.Stmt
	d1   *Abstraction // the caller's own path-edge context
}

// callers is the incoming set of one method context, kept in
// registration order so returns are applied in a fixed order.
type callers struct {
	seen map[callerCtx]bool
	list []callerCtx
}

type exitRec struct {
	exit ir.Stmt
	d2   *Abstraction
}

type leakKey struct {
	sink ir.Stmt
	src  *SourceRecord
	ap   *AccessPath
}

type actKey struct {
	site ir.Stmt
	m    *ir.Method
}

// srcKey identifies a conceptual taint source: the statement it fires at
// plus the matched rule (sourcesink.Source is a comparable value type).
type srcKey struct {
	stmt ir.Stmt
	src  sourcesink.Source
}

// sourceRecord interns the record for (n, src); every evaluation of the
// same source returns the same pointer.
func (e *engine) sourceRecord(n ir.Stmt, src sourcesink.Source) *SourceRecord {
	k := srcKey{n, src}
	if r, ok := e.srcRecs[k]; ok {
		return r
	}
	r := &SourceRecord{Stmt: n, Source: src}
	e.srcRecs[k] = r
	return r
}

// recordLeak registers a (source, sink, access path) leak once. When the
// MaxLeaks cap is configured, the recorder never stores more than the cap
// and hitting it aborts the run with LeakLimitReached — a truncated
// analysis is always distinguishable from an exhaustive one.
//
// ctx is the method context the leak was found under (the sink
// statement's method plus the path-edge context there); when a summary
// session is attached the leak is attributed to it before global
// deduplication, so the context's persisted record carries every leak
// of its subtree even if another context reported the same leak first.
func (e *engine) recordLeak(ctx methodCtx, n ir.Stmt, snk sourcesink.Sink, d *Abstraction) {
	k := leakKey{n, d.Source, d.AP}
	if e.leakAttr != nil {
		per := e.leakAttr[ctx]
		if per == nil {
			per = make(map[leakKey]*Leak)
			e.leakAttr[ctx] = per
		}
		if per[k] == nil {
			per[k] = &Leak{Sink: n, SinkSpec: snk, Abstraction: d}
		}
	}
	if e.leakSeen[k] || (e.conf.MaxLeaks > 0 && len(e.leaks) >= e.conf.MaxLeaks) {
		return
	}
	e.leakSeen[k] = true
	e.leaks = append(e.leaks, &Leak{Sink: n, SinkSpec: snk, Abstraction: d})
	if e.conf.MaxLeaks > 0 && len(e.leaks) >= e.conf.MaxLeaks {
		e.q.stop(LeakLimitReached)
	}
}

func newEngine(icfg *cfg.ICFG, mgr *sourcesink.Manager, conf Config) *engine {
	if conf.APLength <= 0 {
		conf.APLength = 5
	}
	e := &engine{
		icfg:     icfg,
		mgr:      mgr,
		conf:     conf,
		in:       newInterner(conf.APLength),
		ai:       newAbsInterner(),
		methods:  make(map[*ir.Method]*methodState),
		incoming: make(map[methodCtx]*callers),
		endSum:   make(map[methodCtx][]exitRec),
		leakSeen: make(map[leakKey]bool),
		actCache: make(map[actKey]bool),
		srcRecs:  make(map[srcKey]*SourceRecord),
		// Even small apps enqueue thousands of path edges; starting with
		// a real backing array skips the first several append growths.
		q: workQueue{items: make([]task, 0, 1024)},
	}
	if conf.Summaries != nil {
		e.sumDecision = make(map[methodCtx]sumDec)
		e.leakAttr = make(map[methodCtx]map[leakKey]*Leak)
	}
	e.zero = e.ai.get(nil, true, nil, nil, nil, nil)
	e.idxFields = make(map[int64]*ir.Field)
	e.idxClass = ir.NewClass("$array", "")
	return e
}

// indexField interns the pseudo-field standing for a constant array index.
func (e *engine) indexField(v int64) *ir.Field {
	if f, ok := e.idxFields[v]; ok {
		return f
	}
	f, err := e.idxClass.AddField(fmt.Sprintf("idx%d", v), ir.Unknown, false)
	if err != nil {
		// Interned above on first creation; duplicates cannot occur.
		panic(err)
	}
	e.idxFields[v] = f
	return f
}

// ctxCheckEvery is how many worklist items are processed between context
// polls; polling every iteration would dominate the tight loop.
const ctxCheckEvery = 256

func (e *engine) run(ctx context.Context, entries []*ir.Method) *Results {
	if e.rec = metrics.From(ctx); e.rec != nil {
		e.aliasHist = e.rec.Histogram("taint.alias_query_us")
		e.q.depth = e.rec.Gauge("taint.queue_depth", metrics.Schedule)
	}

	e.entrySet = make(map[*ir.Method]bool, len(entries))
	for _, m := range entries {
		e.entrySet[m] = true
		if sp := m.EntryStmt(); sp != nil {
			e.fwPropagate(e.zero, sp, e.zero)
		}
	}
	// Seed callback-parameter sources (e.g. onLocationChanged) for every
	// reachable method, in ir.CompareMethods order: the call graph's
	// discovery order varies between runs.
	type paramSeed struct {
		m    *ir.Method
		srcs []sourcesink.Source
	}
	var seeds []paramSeed
	for _, m := range e.icfg.Graph.Reachable() {
		if m.Abstract() {
			continue
		}
		if srcs := e.mgr.ParamSources(m); len(srcs) > 0 {
			seeds = append(seeds, paramSeed{m, srcs})
		}
	}
	slices.SortFunc(seeds, func(a, b paramSeed) int { return ir.CompareMethods(a.m, b.m) })
	for _, sd := range seeds {
		for _, src := range sd.srcs {
			rec := e.sourceRecord(sd.m.EntryStmt(), src)
			ap := e.in.local(sd.m.Params[src.Param])
			abs := e.ai.get(ap, true, nil, rec, nil, sd.m.EntryStmt())
			e.fwPropagate(e.zero, sd.m.EntryStmt(), abs)
		}
	}

	if ctx.Err() != nil {
		e.q.stop(Cancelled)
	}
	e.drain(ctx)

	stats := Stats{
		ForwardEdges:     e.stats.forwardEdges,
		BackwardEdges:    e.stats.backwardEdges,
		AliasQueries:     e.stats.aliasQueries,
		Propagations:     e.stats.propagations,
		Summaries:        e.stats.summaries,
		PeakAbstractions: e.ai.size(),
	}
	if e.conf.Cone != nil {
		stats.ConeMethods = e.conf.Cone.Methods
		stats.SkippedComponents = e.conf.Cone.SkippedComponents
	}
	if e.conf.Summaries != nil {
		st := e.finalizeSummaries(e.q.status == Completed)
		stats.Store = &st
	}
	e.exportMetrics(stats)
	return &Results{Leaks: e.leaks, Stats: stats, Status: e.q.status}
}

// drain processes the queue until it is empty (the fixed point) or the
// run is aborted, which abandons the remaining items.
func (e *engine) drain(ctx context.Context) {
	q := &e.q
	for steps := 1; len(q.items) > 0 && !q.aborted(); steps++ {
		t := q.items[len(q.items)-1]
		q.items = q.items[:len(q.items)-1]
		q.depth.Add(-1)
		if steps%ctxCheckEvery == 0 && ctx.Err() != nil {
			q.stop(Cancelled)
			return
		}
		if t.backward {
			e.processBackward(t.item)
		} else {
			e.processForward(t.item)
		}
	}
}

// exportMetrics publishes the solver counters that have no field in the
// pipeline's run record (core.Counters publishes the rest: propagations,
// summaries, abstractions and the store counters). They are
// novel-insertion (or once-per-novel-item) counts, so they go into the
// deterministic section. Counters accumulate with Add so a recorder
// shared across a corpus sums per-app effort.
func (e *engine) exportMetrics(s Stats) {
	rec := e.rec
	if rec == nil {
		return
	}
	rec.Counter("taint.forward_edges", metrics.Deterministic).Add(int64(s.ForwardEdges))
	rec.Counter("taint.backward_edges", metrics.Deterministic).Add(int64(s.BackwardEdges))
	rec.Counter("taint.alias_queries", metrics.Deterministic).Add(int64(s.AliasQueries))
	rec.Counter("taint.access_paths", metrics.Deterministic).Add(int64(e.in.size()))
}

// fwPropagate inserts a forward path edge. Only a novel edge is charged
// against the propagation budget and enqueued; duplicates the jump table
// absorbs are free, exactly like the generic solver's accounting. Once
// the run is aborted (budget, leak cap, cancellation) propagation stops
// recording entirely, so the edge counters and the propagation counter
// stay in lockstep and stop growing.
func (e *engine) fwPropagate(d1 *Abstraction, n ir.Stmt, d2 *Abstraction) {
	if e.q.aborted() {
		return
	}
	if ms := e.stateOf(n.Method()); !insertEdge(&ms.fw, ms.size, n.Index(), d1, d2) {
		return
	}
	e.stats.forwardEdges++
	e.charge(task{backward: false, item: item{n, d1, d2}})
}

// bwPropagate is fwPropagate for the backward alias solver.
func (e *engine) bwPropagate(d1 *Abstraction, n ir.Stmt, d2 *Abstraction) {
	if e.q.aborted() {
		return
	}
	if ms := e.stateOf(n.Method()); !insertEdge(&ms.bw, ms.size, n.Index(), d1, d2) {
		return
	}
	e.stats.backwardEdges++
	e.charge(task{backward: true, item: item{n, d1, d2}})
}

// charge counts a novel path-edge insertion against MaxPropagations and
// enqueues it. Reaching the budget aborts the run: the edge stays
// recorded in the jump table but is never processed, so a budgeted run
// ends with exactly MaxPropagations propagations.
func (e *engine) charge(t task) {
	e.stats.propagations++
	if e.conf.MaxPropagations > 0 && e.stats.propagations >= e.conf.MaxPropagations {
		e.q.stop(BudgetExhausted)
		return
	}
	e.q.push(t)
}

// ---------------------------------------------------------------- forward

func (e *engine) processForward(it item) {
	switch {
	case e.icfg.IsCall(it.n):
		e.fwCall(it)
	case e.icfg.IsExit(it.n):
		e.fwExit(it)
	default:
		e.fwNormal(it)
	}
}

func (e *engine) fwNormal(it item) {
	d2 := it.d2
	// Flowing over the activation statement turns the alias into a live
	// taint.
	if e.conf.EnableActivation && d2 != e.zero && !d2.Active && d2.Activation == it.n {
		d2 = e.ai.activate(d2, it.n)
	}
	outs, triggers := e.normalFlow(it.n, d2)
	for _, t := range triggers {
		e.spawnAliasSearch(it.n, it.d1, t)
	}
	for _, succ := range e.succsOf(it.n) {
		for _, out := range outs {
			e.fwPropagate(it.d1, succ, out)
		}
	}
}

func (e *engine) fwCall(it item) {
	si := e.siteOf(it.n)
	call := si.call
	retSites := e.succsOf(it.n)
	// Descend into callees with bodies.
	for _, callee := range si.callees {
		sp := callee.EntryStmt()
		if sp == nil {
			continue
		}
		// Query-cone pruning: the zero fact exists to discover sources;
		// descending it into a call tree with no potential sources, no
		// queried sinks and no static writes cannot change the report.
		// Taint facts (d2 != zero) always descend — they may pass through
		// an irrelevant callee and return toward a queried sink.
		if e.conf.Cone != nil && it.d2 == e.zero && !e.conf.Cone.Relevant(callee) {
			continue
		}
		for _, d3 := range e.callFlow(call, callee, it.d2) {
			// Summary store: a context installed from the store has its
			// complete end summary and subtree leaks replayed; seeding the
			// subtree again would only recompute them. Callers still
			// register — returns flow through the installed summaries.
			installed := e.summaryFor(callee, d3)
			e.registerIncoming(callee, d3, it.n, it.d1)
			if !installed {
				e.fwPropagate(d3, sp, d3)
			}
		}
	}
	// Call-to-return on the caller's side: sources, sinks, shortcut
	// rules, native defaults, result kill.
	outs := e.callToReturn(it.n, si, it.d1, it.d2)
	for _, retSite := range retSites {
		for _, out := range outs {
			e.fwPropagate(it.d1, retSite, out)
		}
	}
}

// registerIncoming records a caller context for (callee, entry fact) and
// applies the end summaries already computed for that context; fwExit
// applies the later ones. The backward solver uses the same mechanism to
// inject contexts.
func (e *engine) registerIncoming(callee *ir.Method, d3 *Abstraction, site ir.Stmt, callerD1 *Abstraction) {
	key := methodCtx{callee, d3}
	cc := callerCtx{site, callerD1}
	inc := e.incoming[key]
	if inc == nil {
		inc = &callers{seen: make(map[callerCtx]bool)}
		e.incoming[key] = inc
	}
	if inc.seen[cc] {
		return
	}
	inc.seen[cc] = true
	inc.list = append(inc.list, cc)
	for _, ep := range e.endSum[key] {
		e.applyReturn(cc, callee, ep)
	}
}

func (e *engine) fwExit(it item) {
	m := it.n.Method()
	key := methodCtx{m, it.d1}
	ep := exitRec{it.n, it.d2}
	e.endSum[key] = append(e.endSum[key], ep)
	e.stats.summaries++
	e.applyToCallers(key, ep)
}

// applyToCallers applies one end summary to every caller registered so
// far, in registration order.
func (e *engine) applyToCallers(key methodCtx, ep exitRec) {
	if inc := e.incoming[key]; inc != nil {
		for _, cc := range inc.list {
			e.applyReturn(cc, key.m, ep)
		}
	}
}

func (e *engine) applyReturn(cc callerCtx, callee *ir.Method, ep exitRec) {
	mapped := e.returnFlow(cc.site, callee, ep.exit, ep.d2)
	for _, md := range mapped {
		md = e.maybeActivateAtCall(cc.site, md)
		for _, retSite := range e.succsOf(cc.site) {
			e.fwPropagate(cc.d1, retSite, md)
		}
		// A heap taint mapped back into the caller may have aliases
		// established before the call: spawn a new alias search there.
		if e.conf.EnableAliasing && md.AP != nil && len(md.AP.Fields) > 0 && !md.AP.IsStatic() {
			e.spawnAliasSearch(cc.site, cc.d1, md)
		}
	}
}

// maybeActivateAtCall activates an inactive taint when the call site can
// transitively execute its activation statement (activation statements
// represent call trees).
func (e *engine) maybeActivateAtCall(site ir.Stmt, d *Abstraction) *Abstraction {
	if !e.conf.EnableActivation || d == e.zero || d.Active || d.Activation == nil {
		return d
	}
	if d.Activation == site || e.canActivate(site, d.Activation) {
		return e.ai.activate(d, site)
	}
	return d
}

// canActivate memoizes the call-graph reachability query.
func (e *engine) canActivate(site ir.Stmt, act ir.Stmt) bool {
	k := actKey{site, act.Method()}
	v, ok := e.actCache[k]
	if !ok {
		v = e.icfg.Graph.ReachesTransitively(site, k.m)
		e.actCache[k] = v
	}
	return v
}

// spawnAliasSearch starts the backward alias solver for a freshly tainted
// heap location at statement n, under the same path-edge context d1
// (context injection, Algorithm 1 line 16). The alias copy is inactive
// with n as its activation statement.
func (e *engine) spawnAliasSearch(n ir.Stmt, d1 *Abstraction, t *Abstraction) {
	if e.aliasHist == nil {
		e.doSpawnAliasSearch(n, d1, t)
		return
	}
	t0 := time.Now()
	e.doSpawnAliasSearch(n, d1, t)
	e.aliasHist.Observe(time.Since(t0))
}

func (e *engine) doSpawnAliasSearch(n ir.Stmt, d1 *Abstraction, t *Abstraction) {
	if !e.conf.EnableAliasing || t.AP == nil || t.AP.IsStatic() {
		return
	}
	e.stats.aliasQueries++
	var alias *Abstraction
	if !e.conf.EnableActivation {
		// Andromeda-style mode: aliases are active immediately
		// (flow-insensitive, cf. Listing 3).
		alias = e.ai.get(t.AP, true, nil, t.Source, t, n)
	} else if !t.Active {
		alias = t // already an inactive alias; keep its activation
	} else {
		alias = e.ai.deriveInactive(t, t.AP, n, n)
	}
	d1Inj := d1
	if !e.conf.InjectContext {
		// Ablation: naive spawning from the tautological context
		// (Figure 3's dotted edge), which loses the correlation between
		// the alias and the condition under which it was tainted.
		d1Inj = e.zero
	}
	for _, p := range e.predsOf(n) {
		e.bwPropagate(d1Inj, p, alias)
	}
}

// --------------------------------------------------------------- backward

func (e *engine) processBackward(it item) {
	n, d2 := it.n, it.d2
	var outs []*Abstraction

	switch {
	case ir.IsCall(n):
		outs = e.bwCall(it)
	default:
		if a, ok := n.(*ir.AssignStmt); ok {
			outs = e.bwAssign(a, d2)
			// Algorithm 2, line 17: every fact at an assignment is
			// handed to the forward solver, which re-derives the
			// downstream aliases from this point.
			for _, out := range outs {
				e.fwPropagate(it.d1, n, out)
			}
		} else {
			outs = d2.self
		}
	}

	// At the method's first statement the backward solver hands over to
	// the forward solver and stops (it never returns into callers).
	if n.Index() == 0 {
		for _, out := range outs {
			e.fwPropagate(it.d1, n, out)
		}
		return
	}
	for _, p := range e.predsOf(n) {
		for _, out := range outs {
			e.bwPropagate(it.d1, p, out)
		}
	}
}

// bwCall handles a call statement during the backward walk: facts rooted
// in the call's result were produced inside the callee (descend, do not
// pass up); facts rooted in arguments or the receiver may have aliases
// established inside the callee (descend and pass up); static-rooted
// facts descend and pass up; everything else passes up.
func (e *engine) bwCall(it item) []*Abstraction {
	n, d2 := it.n, it.d2
	if d2.AP == nil {
		return d2.self
	}
	si := e.siteOf(n)
	call, result := si.call, si.result

	for _, callee := range si.callees {
		for _, pair := range e.bwCallFlow(call, result, callee, d2, n) {
			// Inject this caller context into the forward solver's
			// incoming set so the forward pass spawned at the callee's
			// header can return into the right caller only.
			d1Inj := it.d1
			if !e.conf.InjectContext {
				d1Inj = e.zero
			}
			e.registerIncoming(callee, pair.fact, n, d1Inj)
			e.bwPropagate(pair.fact, pair.at, pair.fact)
		}
	}

	// Pass-through upward: result-rooted facts are killed (the call
	// defines the result).
	if result != nil && d2.AP.Base == result {
		return nil
	}
	return d2.self
}

type bwSeed struct {
	fact *Abstraction
	at   ir.Stmt
}

// bwCallFlow maps a backward fact at a call into callee-exit seeds.
func (e *engine) bwCallFlow(call *ir.InvokeExpr, result *ir.Local, callee *ir.Method, d2 *Abstraction, at ir.Stmt) []bwSeed {
	var out []bwSeed
	exits := callee.ExitStmts()
	seedAll := func(a *Abstraction) {
		for _, ex := range exits {
			out = append(out, bwSeed{a, ex})
		}
	}
	ap := d2.AP
	switch {
	case ap.IsStatic():
		seedAll(d2)
	case result != nil && ap.Base == result:
		// Map the result back to each returned local.
		for _, ex := range exits {
			ret := ex.(*ir.ReturnStmt)
			if v, ok := ret.Value.(*ir.Local); ok {
				m := e.ai.derive(d2, e.in.rebase(ap, v), at)
				out = append(out, bwSeed{m, ex})
			}
		}
	default:
		if call.Base != nil && ap.Base == call.Base && callee.This != nil {
			seedAll(e.ai.derive(d2, e.in.rebase(ap, callee.This), at))
		}
		for i, arg := range call.Args {
			if l, ok := arg.(*ir.Local); ok && ap.Base == l && i < len(callee.Params) {
				seedAll(e.ai.derive(d2, e.in.rebase(ap, callee.Params[i]), at))
			}
		}
	}
	return out
}

// bwAssign computes the facts holding before an assignment from a fact
// holding after it (Algorithm 2: replace left-hand side by right-hand
// side). Locals are strongly updated backwards; heap locations are not.
func (e *engine) bwAssign(a *ir.AssignStmt, d2 *Abstraction) []*Abstraction {
	if d2.AP == nil {
		return d2.self
	}
	ap := d2.AP
	switch lhs := a.LHS.(type) {
	case *ir.Local:
		if ap.Base != lhs {
			return d2.self
		}
		// Rebase through the RHS; the binding of lhs starts here, so the
		// lhs-rooted fact does not survive above this statement.
		switch rhs := a.RHS.(type) {
		case *ir.Local:
			return e.ai.derive(d2, e.in.rebase(ap, rhs), a).self
		case *ir.Cast:
			if x, ok := rhs.X.(*ir.Local); ok {
				return e.ai.derive(d2, e.in.rebase(ap, x), a).self
			}
			return nil
		case *ir.FieldRef:
			return e.ai.derive(d2, e.appendField(rhs.Base, rhs.Field, ap.Fields), a).self
		case *ir.StaticFieldRef:
			return e.ai.derive(d2, e.in.appendStatic(rhs.Field, ap.Fields), a).self
		case *ir.ArrayRef:
			// The value came out of the array: treat the whole array as
			// the alias (array indices are not modeled).
			return e.ai.derive(d2, e.in.local(rhs.Base), a).self
		default:
			// new, newarray, constants, binops: the value originates
			// here; the alias chain ends.
			return nil
		}
	case *ir.FieldRef:
		if suffix, ok := stripFieldPrefix(ap, lhs.Base, lhs.Field); ok {
			if src, ok := a.RHS.(*ir.Local); ok {
				rebased := e.ai.derive(d2, e.in.local(src, suffix...), a)
				// No strong updates on fields: keep both.
				return []*Abstraction{d2, rebased}
			}
		}
		return d2.self
	case *ir.StaticFieldRef:
		if ap.StaticRoot == lhs.Field {
			if src, ok := a.RHS.(*ir.Local); ok {
				rebased := e.ai.derive(d2, e.in.local(src, ap.Fields...), a)
				return []*Abstraction{d2, rebased}
			}
		}
		return d2.self
	case *ir.ArrayRef:
		if ap.Base == lhs.Base {
			if src, ok := a.RHS.(*ir.Local); ok {
				rebased := e.ai.derive(d2, e.in.local(src), a)
				return []*Abstraction{d2, rebased}
			}
		}
		return d2.self
	}
	return d2.self
}

// stripFieldPrefix matches ap against base.field...: ap = base.field.F
// yields (F, true); whole-object taints (ap = base) are not stripped here
// because they do not originate from this store alone.
func stripFieldPrefix(ap *AccessPath, base *ir.Local, field *ir.Field) ([]*ir.Field, bool) {
	if ap.Base != base || len(ap.Fields) == 0 || ap.Fields[0] != field {
		return nil, false
	}
	return ap.Fields[1:], true
}

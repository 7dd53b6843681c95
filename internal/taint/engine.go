package taint

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
// Both directions feed one shared counting-tracked work queue, drained
// either by the calling goroutine (Workers <= 1) or by a pool of workers
// (see parallel.go). All state reachable from a flow function is
// concurrency-safe: the jump tables are striped, incoming/endSum share
// one lock whose critical sections keep the summary-application invariant
// (see registerIncoming), the leak recorder and activation cache are
// locked, the interners synchronize internally, and the counters are
// atomic.
type engine struct {
	icfg *cfg.ICFG
	mgr  *sourcesink.Manager
	conf Config

	in   *interner
	ai   *absInterner
	zero *Abstraction

	fwJump *jumpTable
	bwJump *jumpTable

	// callMu guards incoming and endSum together: the pairing of caller
	// contexts with end summaries must be atomic so no (caller, summary)
	// combination is lost when both sides race (same discipline as the
	// generic parallel solver).
	callMu   sync.Mutex
	incoming map[methodCtx]map[callerCtx]bool
	endSum   map[methodCtx][]exitRec

	leakMu   sync.Mutex
	leaks    []*Leak
	leakSeen map[leakKey]bool

	actMu    sync.RWMutex
	actCache map[actKey]bool

	// sumMu guards the per-context summary-store decision map; the first
	// worker to reach a context looks it up (and installs on a hit) for
	// everyone. nil maps when no summary session is configured. Lock
	// order: sumMu before callMu / leakMu, never the reverse.
	sumMu       sync.Mutex
	sumDecision map[methodCtx]sumDec
	// leakAttr attributes every leak to the method context whose subtree
	// it was found in (before global deduplication — a context's record
	// must carry the leak even when another context reported it first).
	// Guarded by leakMu; nil when no summary session is configured.
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
	// it Stats.PeakAbstractions — depend on how often workers happened to
	// re-evaluate a source, i.e. on the schedule.
	srcMu   sync.Mutex
	srcRecs map[srcKey]*SourceRecord

	stats engineStats

	// aliasHist, when metrics are enabled, times each alias-search spawn;
	// nil otherwise so the disabled path is one pointer check.
	aliasHist *metrics.Histogram
	rec       *metrics.Recorder

	// idxFields interns the pseudo-fields that model constant array
	// indices when ArrayIndexSensitive is on.
	idxMu     sync.Mutex
	idxFields map[int64]*ir.Field
	idxClass  *ir.Class

	// sites memoizes per-call-site static facts (resolved wrapper rules,
	// stub dispatch, carrier classification, alias gate); see carrier.go.
	sites sync.Map // ir.Stmt -> *callSite

	q *workQueue
}

// engineStats are the live counters; workers update them with atomic
// increments and run snapshots them into the exported Stats.
type engineStats struct {
	propagations      atomic.Int64
	forwardEdges      atomic.Int64
	backwardEdges     atomic.Int64
	aliasQueries      atomic.Int64
	gatedAliasQueries atomic.Int64
	summaries         atomic.Int64

	// Summary-store outcome counters, one per distinct method context.
	storeHits        atomic.Int64
	storeMisses      atomic.Int64
	storeInvalidated atomic.Int64
	storeCorrupt     atomic.Int64
	storeUncacheable atomic.Int64
}

type edge struct{ d1, d2 *Abstraction }

type item struct {
	n      ir.Stmt
	d1, d2 *Abstraction
}

type methodCtx struct {
	m  *ir.Method
	d1 *Abstraction
}

type callerCtx struct {
	site ir.Stmt
	d1   *Abstraction // the caller's own path-edge context
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
	e.srcMu.Lock()
	defer e.srcMu.Unlock()
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
	e.leakMu.Lock()
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
		e.leakMu.Unlock()
		return
	}
	e.leakSeen[k] = true
	e.leaks = append(e.leaks, &Leak{Sink: n, SinkSpec: snk, Abstraction: d})
	capped := e.conf.MaxLeaks > 0 && len(e.leaks) >= e.conf.MaxLeaks
	e.leakMu.Unlock()
	if capped {
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
		fwJump:   newJumpTable(),
		bwJump:   newJumpTable(),
		incoming: make(map[methodCtx]map[callerCtx]bool),
		endSum:   make(map[methodCtx][]exitRec),
		leakSeen: make(map[leakKey]bool),
		actCache: make(map[actKey]bool),
		srcRecs:  make(map[srcKey]*SourceRecord),
		q:        newWorkQueue(),
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
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
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
	workers := e.conf.Workers
	if workers <= 0 {
		workers = 1
	}
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
	// reachable method.
	for _, m := range e.icfg.Graph.Reachable() {
		if m.Abstract() {
			continue
		}
		for _, src := range e.mgr.ParamSources(m) {
			rec := e.sourceRecord(m.EntryStmt(), src)
			ap := e.in.local(m.Params[src.Param])
			abs := e.ai.get(ap, true, nil, rec, nil, m.EntryStmt())
			e.fwPropagate(e.zero, m.EntryStmt(), abs)
		}
	}

	switch {
	case ctx.Err() != nil:
		e.q.stop(Cancelled)
	case workers == 1:
		e.drainSequential(ctx)
	default:
		e.drainParallel(ctx, workers)
	}

	stats := Stats{
		ForwardEdges:      int(e.stats.forwardEdges.Load()),
		BackwardEdges:     int(e.stats.backwardEdges.Load()),
		AliasQueries:      int(e.stats.aliasQueries.Load()),
		GatedAliasQueries: int(e.stats.gatedAliasQueries.Load()),
		Propagations:      int(e.stats.propagations.Load()),
		Summaries:         int(e.stats.summaries.Load()),
		PeakAbstractions:  e.ai.size(),
		Workers:           workers,
	}
	if e.conf.Cone != nil {
		stats.ConeMethods = e.conf.Cone.Methods
		stats.SkippedComponents = e.conf.Cone.SkippedComponents
	}
	if e.conf.Summaries != nil {
		st := e.finalizeSummaries(e.q.finalStatus() == Completed)
		stats.Store = &st
	}
	e.exportMetrics(stats)
	return &Results{Leaks: e.leaks, Stats: stats, Status: e.q.finalStatus()}
}

// exportMetrics publishes the solver counters that have no field in the
// pipeline's run record (core.Counters publishes the rest: propagations,
// summaries, abstractions, workers and the store counters). They are
// novel-insertion (or once-per-novel-item) counts, schedule-independent
// on completed runs, so they go into the deterministic section. Counters
// accumulate with Add so a recorder shared across a corpus sums per-app
// effort.
func (e *engine) exportMetrics(s Stats) {
	rec := e.rec
	if rec == nil {
		return
	}
	rec.Counter("taint.forward_edges", metrics.Deterministic).Add(int64(s.ForwardEdges))
	rec.Counter("taint.backward_edges", metrics.Deterministic).Add(int64(s.BackwardEdges))
	rec.Counter("taint.alias_queries", metrics.Deterministic).Add(int64(s.AliasQueries))
	rec.Counter("taint.alias_queries_gated", metrics.Deterministic).Add(int64(s.GatedAliasQueries))
	rec.Counter("taint.access_paths", metrics.Deterministic).Add(int64(e.in.size()))
}

// fwPropagate inserts a forward path edge. Only a novel edge is charged
// against the propagation budget and enqueued; duplicates the jump table
// absorbs are free, exactly like the generic solver's accounting. Once
// the run is aborted (budget, leak cap, cancellation) propagation stops
// recording entirely, so the edge counters and the propagation counter
// stay in lockstep and stop growing; concurrent workers already past the
// abort check can each land at most one final insertion.
func (e *engine) fwPropagate(d1 *Abstraction, n ir.Stmt, d2 *Abstraction) {
	if e.q.aborted.Load() {
		return
	}
	if !e.fwJump.insert(n, edge{d1, d2}) {
		return
	}
	e.stats.forwardEdges.Add(1)
	e.charge(task{backward: false, item: item{n, d1, d2}})
}

// bwPropagate is fwPropagate for the backward alias solver.
func (e *engine) bwPropagate(d1 *Abstraction, n ir.Stmt, d2 *Abstraction) {
	if e.q.aborted.Load() {
		return
	}
	if !e.bwJump.insert(n, edge{d1, d2}) {
		return
	}
	e.stats.backwardEdges.Add(1)
	e.charge(task{backward: true, item: item{n, d1, d2}})
}

// charge counts a novel path-edge insertion against MaxPropagations and
// enqueues it. Crossing the budget aborts the run: the edge stays
// recorded in the jump table but is never processed, and workers abandon
// the remaining queue.
func (e *engine) charge(t task) {
	props := e.stats.propagations.Add(1)
	if e.conf.MaxPropagations > 0 && props >= int64(e.conf.MaxPropagations) {
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
	for _, succ := range e.icfg.SuccsOf(it.n) {
		for _, out := range outs {
			e.fwPropagate(it.d1, succ, out)
		}
	}
}

func (e *engine) fwCall(it item) {
	call := ir.CallOf(it.n)
	// Descend into callees with bodies.
	for _, callee := range e.icfg.CalleesOf(it.n) {
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
	outs := e.callToReturn(it.n, call, it.d1, it.d2)
	for _, retSite := range e.icfg.SuccsOf(it.n) {
		for _, out := range outs {
			e.fwPropagate(it.d1, retSite, out)
		}
	}
}

// registerIncoming records a caller context for (callee, entry fact) and
// applies any summaries already computed for that context. The backward
// solver uses the same mechanism to inject contexts.
//
// The critical section covers both the incoming insertion and the summary
// snapshot so that no (caller, summary) pair is lost: whichever of
// registerIncoming and fwExit enters the lock second observes the other's
// write. Duplicate applications are harmless — propagate deduplicates.
func (e *engine) registerIncoming(callee *ir.Method, d3 *Abstraction, site ir.Stmt, callerD1 *Abstraction) {
	key := methodCtx{callee, d3}
	cc := callerCtx{site, callerD1}
	e.callMu.Lock()
	inc := e.incoming[key]
	if inc == nil {
		inc = make(map[callerCtx]bool)
		e.incoming[key] = inc
	}
	if inc[cc] {
		e.callMu.Unlock()
		return
	}
	inc[cc] = true
	sums := append([]exitRec(nil), e.endSum[key]...)
	e.callMu.Unlock()
	for _, ep := range sums {
		e.applyReturn(cc, callee, ep)
	}
}

func (e *engine) fwExit(it item) {
	m := it.n.Method()
	key := methodCtx{m, it.d1}
	ep := exitRec{it.n, it.d2}
	e.callMu.Lock()
	e.endSum[key] = append(e.endSum[key], ep)
	callers := make([]callerCtx, 0, len(e.incoming[key]))
	for cc := range e.incoming[key] {
		callers = append(callers, cc)
	}
	e.callMu.Unlock()
	e.stats.summaries.Add(1)
	for _, cc := range callers {
		e.applyReturn(cc, m, ep)
	}
}

func (e *engine) applyReturn(cc callerCtx, callee *ir.Method, ep exitRec) {
	mapped := e.returnFlow(cc.site, callee, ep.exit, ep.d2)
	for _, md := range mapped {
		md = e.maybeActivateAtCall(cc.site, md)
		for _, retSite := range e.icfg.SuccsOf(cc.site) {
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

// canActivate memoizes the call-graph reachability query. The underlying
// ReachesTransitively walk is a pure read of the built call graph, so
// concurrent workers may recompute a missing entry redundantly; the
// result is identical and the last write wins.
func (e *engine) canActivate(site ir.Stmt, act ir.Stmt) bool {
	m := act.Method()
	k := actKey{site, m}
	e.actMu.RLock()
	v, ok := e.actCache[k]
	e.actMu.RUnlock()
	if ok {
		return v
	}
	v = e.icfg.Graph.ReachesTransitively(site, m)
	e.actMu.Lock()
	e.actCache[k] = v
	e.actMu.Unlock()
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
	e.stats.aliasQueries.Add(1)
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
	for _, p := range e.icfg.PredsOf(n) {
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
	for _, p := range e.icfg.PredsOf(n) {
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
	call := ir.CallOf(n)
	result := ir.CallResult(n)

	if d2.AP == nil {
		return d2.self
	}

	for _, callee := range e.icfg.CalleesOf(n) {
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

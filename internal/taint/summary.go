package taint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"flowdroid/internal/ir"
	"flowdroid/internal/sourcesink"
)

// This file is the engine side of the persistent summary store
// (internal/summarystore): serializing a method context's fixed point
// into a symbolic, program-independent record, and replaying such a
// record on a warm run instead of re-exploring the call subtree.
//
// The unit of caching is a *method context* (callee, entry fact), the
// same key the solver's endSum map uses. A context is cacheable when
// its entry fact is the zero fact or an active taint (inactive entry
// facts carry an activation statement from the caller's frame, which a
// symbolic record cannot anchor). A stored record is valid whenever the
// method's transitive content hash matches — the hash covers the whole
// call subtree (see summarystore.HashMethods) — and it captures the
// context's complete boundary effects:
//
//   - the end summary: every fact reaching an exit of the method, and
//   - the transitive leaks: every leak recorded anywhere in the
//     context's subtree, so skipping the subtree loses no reports.
//
// Records are source-agnostic: the transfer functions never inspect a
// fact's provenance, so a record computed for entry fact (ap, src₁)
// replays verbatim for (ap, src₂) with the entry source substituted.
// Facts whose taint was born *inside* the subtree carry their concrete
// source (statement + rule) instead.

// LookupStatus classifies a summary-store lookup. Everything except a
// hit behaves as "not available, explore live" — the distinctions exist
// only for the summary.store.{hit,miss,invalidated,corrupt} counters.
type LookupStatus int

const (
	// LookupHit means a valid record was found.
	LookupHit LookupStatus = iota
	// LookupMiss means no record exists for this method and shape.
	LookupMiss
	// LookupInvalidated means a record exists but its method hash is
	// stale — the method or something in its call subtree changed.
	LookupInvalidated
	// LookupCorrupt means the entry was unreadable: truncated, bit-
	// flipped, or written under a different format version. Treated
	// exactly like a miss.
	LookupCorrupt
)

// Summaries is the session interface the engine talks to. A session is
// scoped to one (app, configuration) namespace; the engine consults it
// once per method context and hands back complete records only at the
// end of a Completed run. internal/summarystore provides the disk-backed
// implementation.
type Summaries interface {
	// Lookup returns the stored record for the method under the given
	// entry-fact shape, if a valid one exists.
	Lookup(m *ir.Method, shape string) (*MethodSummary, LookupStatus)
	// Persist records the fixed point for (m, shape). Implementations
	// buffer; the engine only persists from Completed runs.
	Persist(m *ir.Method, shape string, rec *MethodSummary)
}

// FieldSig names a resolved field: the declaring class and field name.
type FieldSig struct {
	Class string `json:"class"`
	Name  string `json:"name"`
}

// SymbolicFact is a taint abstraction with every pointer replaced by a
// stable name: locals by name (resolved in a home method), fields and
// statements by signature and index. Entry==true marks provenance as
// "the context's entry fact's source", substituted at replay time.
type SymbolicFact struct {
	Zero        bool               `json:"zero,omitempty"`
	Base        string             `json:"base,omitempty"`
	StaticClass string             `json:"staticClass,omitempty"`
	StaticField string             `json:"staticField,omitempty"`
	Fields      []FieldSig         `json:"fields,omitempty"`
	Active      bool               `json:"active,omitempty"`
	ActMethod   string             `json:"actMethod,omitempty"`
	ActIndex    int                `json:"actIndex,omitempty"`
	Entry       bool               `json:"entry,omitempty"`
	SrcMethod   string             `json:"srcMethod,omitempty"`
	SrcIndex    int                `json:"srcIndex,omitempty"`
	SrcRule     *sourcesink.Source `json:"srcRule,omitempty"`
}

// SummaryExit is one end-summary entry: a fact (rooted in the
// summarized method's frame or a static field) at an exit statement.
type SummaryExit struct {
	ExitIndex int          `json:"exit"`
	Fact      SymbolicFact `json:"fact"`
}

// SummaryLeak is one leak found inside the context's subtree. The fact
// is rooted in the sink statement's method.
type SummaryLeak struct {
	SinkMethod string          `json:"sinkMethod"`
	SinkIndex  int             `json:"sinkIndex"`
	Sink       sourcesink.Sink `json:"sink"`
	Fact       SymbolicFact    `json:"fact"`
}

// MethodSummary is the stored fixed point of one method context.
type MethodSummary struct {
	Exits []SummaryExit `json:"exits,omitempty"`
	Leaks []SummaryLeak `json:"leaks,omitempty"`
}

// StoreStats reports the summary store's effect on a run. The headline
// reuse rate is methods-level: MethodsReused counts call-graph-
// reachable analyzable methods the solver never had to walk because
// every path to them was cut off by an installed summary.
type StoreStats struct {
	// Hits counts contexts installed from the store; Misses, Invalidated
	// and Corrupt classify the lookups that found nothing usable. All
	// four are per-context (memoized), not per-evaluation.
	Hits        int
	Misses      int
	Invalidated int
	Corrupt     int
	// Uncacheable counts contexts whose entry fact cannot be summarized
	// (inactive aliases anchored to a caller-frame activation statement).
	Uncacheable int
	// MethodsExplored is the number of distinct methods the solver
	// actually walked; MethodsReused the number it skipped thanks to
	// installed summaries. Persisted counts records handed to the store.
	MethodsExplored int
	MethodsReused   int
	Persisted       int
}

// ReuseRate is MethodsReused over the methods that would have been
// walked on a cold run.
func (s StoreStats) ReuseRate() float64 {
	t := s.MethodsReused + s.MethodsExplored
	if t == 0 {
		return 0
	}
	return float64(s.MethodsReused) / float64(t)
}

// sumDec is the memoized per-context store decision.
type sumDec uint8

const (
	sumDecMiss        sumDec = iota + 1 // looked up, nothing usable: explore live
	sumDecInstalled                     // stored record installed: skip the subtree
	sumDecUncacheable                   // entry fact not summarizable
)

// cacheable reports whether the context's entry fact can be keyed
// symbolically: the zero fact, or an active taint (Active implies
// Activation==nil — activation statements are consumed on activation).
func (e *engine) cacheable(d3 *Abstraction) bool {
	return d3 == e.zero || (d3.Active && d3.Activation == nil)
}

// shapeOf renders the entry fact's shape — the store key within a
// method. Provenance is deliberately excluded (records are isomorphic
// in the entry source); activation state needs no encoding because
// every cacheable non-zero entry fact is active.
func (e *engine) shapeOf(d *Abstraction) string {
	if d == e.zero {
		return "0"
	}
	ap := d.AP
	var sb strings.Builder
	if ap.Base != nil {
		sb.WriteString("L:")
		sb.WriteString(ap.Base.Name)
	} else {
		sb.WriteString("S:")
		sb.WriteString(ap.StaticRoot.Class.Name)
		sb.WriteString("#")
		sb.WriteString(ap.StaticRoot.Name)
	}
	for _, f := range ap.Fields {
		sb.WriteString("|")
		sb.WriteString(f.Class.Name)
		sb.WriteString("#")
		sb.WriteString(f.Name)
	}
	return sb.String()
}

// summaryFor consults the summary session for (callee, d3), once per
// context (the decision is memoized, so the hit/miss counters are
// per-context too). On a hit the stored exits are appended to endSum
// exactly like fwExit would, so registerIncoming applies them to every
// later caller, and the stored transitive leaks are replayed. It returns
// true when the caller should skip seeding the callee's subtree.
func (e *engine) summaryFor(callee *ir.Method, d3 *Abstraction) bool {
	if e.conf.Summaries == nil {
		return false
	}
	key := methodCtx{callee, d3}
	if dec, ok := e.sumDecision[key]; ok {
		return dec == sumDecInstalled
	}
	dec := e.installSummary(key)
	e.sumDecision[key] = dec
	switch dec {
	case sumDecInstalled:
		e.stats.storeHits++
	case sumDecUncacheable:
		e.stats.storeUncacheable++
	}
	return dec == sumDecInstalled
}

// installSummary looks up and, on a hit, installs the stored record for
// one context.
func (e *engine) installSummary(key methodCtx) sumDec {
	d3 := key.d1
	if !e.cacheable(d3) {
		return sumDecUncacheable
	}
	rec, st := e.conf.Summaries.Lookup(key.m, e.shapeOf(d3))
	switch st {
	case LookupHit:
	case LookupInvalidated:
		e.stats.storeInvalidated++
		return sumDecMiss
	case LookupCorrupt:
		e.stats.storeCorrupt++
		return sumDecMiss
	default:
		e.stats.storeMisses++
		return sumDecMiss
	}

	// Phase 1: resolve the whole record purely. Any dangling reference
	// (a name-hash collision slipping past, or a record from a buggy
	// writer) demotes the hit to a miss with no side effects.
	type rleak struct {
		sink ir.Stmt
		rule sourcesink.Sink
		fact *Abstraction
	}
	exits := make([]exitRec, 0, len(rec.Exits))
	for _, se := range rec.Exits {
		body := key.m.Body()
		if se.ExitIndex < 0 || se.ExitIndex >= len(body) {
			e.stats.storeMisses++
			return sumDecMiss
		}
		fact, ok := e.resolveFact(se.Fact, key.m, d3)
		if !ok {
			e.stats.storeMisses++
			return sumDecMiss
		}
		exits = append(exits, exitRec{body[se.ExitIndex], fact})
	}
	leaks := make([]rleak, 0, len(rec.Leaks))
	for _, sl := range rec.Leaks {
		sm := e.methodBySig(sl.SinkMethod)
		if sm == nil || sl.SinkIndex < 0 || sl.SinkIndex >= len(sm.Body()) {
			e.stats.storeMisses++
			return sumDecMiss
		}
		fact, ok := e.resolveFact(sl.Fact, sm, d3)
		if !ok || fact == e.zero {
			e.stats.storeMisses++
			return sumDecMiss
		}
		leaks = append(leaks, rleak{sm.Body()[sl.SinkIndex], sl.Sink, fact})
	}

	// Phase 2: install. Append the exits exactly like fwExit would and
	// apply them to the callers already registered (callers arriving
	// later replay them through registerIncoming).
	e.endSum[key] = append(e.endSum[key], exits...)
	e.stats.summaries += len(exits)
	for _, ep := range exits {
		e.applyToCallers(key, ep)
	}
	for _, lk := range leaks {
		e.recordLeak(key, lk.sink, lk.rule, lk.fact)
	}
	return sumDecInstalled
}

// resolveFact reconstructs a live abstraction from its symbolic form.
// Locals resolve in the home method's frame (the summarized method for
// exits, the sink's method for leaks); fields resolve to the declaring
// class's declared field; statements by index. All interning goes
// through the run's interners, so replayed facts are pointer-identical
// to the facts live exploration would have derived — leak deduplication
// and jump-table dedup work unchanged.
func (e *engine) resolveFact(sf SymbolicFact, home *ir.Method, entry *Abstraction) (*Abstraction, bool) {
	if sf.Zero {
		return e.zero, true
	}
	fields := make([]*ir.Field, 0, len(sf.Fields))
	for _, fs := range sf.Fields {
		f := e.fieldBySig(fs)
		if f == nil {
			return nil, false
		}
		fields = append(fields, f)
	}
	var ap *AccessPath
	switch {
	case sf.Base != "":
		l := home.LookupLocal(sf.Base)
		if l == nil {
			return nil, false
		}
		ap = e.in.local(l, fields...)
	case sf.StaticClass != "":
		root := e.fieldBySig(FieldSig{sf.StaticClass, sf.StaticField})
		if root == nil {
			return nil, false
		}
		ap = e.in.static(root, fields...)
	default:
		return nil, false
	}
	var act ir.Stmt
	if !sf.Active && sf.ActMethod != "" {
		am := e.methodBySig(sf.ActMethod)
		if am == nil || sf.ActIndex < 0 || sf.ActIndex >= len(am.Body()) {
			return nil, false
		}
		act = am.Body()[sf.ActIndex]
	}
	var src *SourceRecord
	switch {
	case sf.Entry:
		if entry == nil || entry.Source == nil {
			return nil, false
		}
		src = entry.Source
	case sf.SrcRule != nil:
		sm := e.methodBySig(sf.SrcMethod)
		if sm == nil || sf.SrcIndex < 0 || sf.SrcIndex >= len(sm.Body()) {
			return nil, false
		}
		src = e.sourceRecord(sm.Body()[sf.SrcIndex], *sf.SrcRule)
	default:
		return nil, false
	}
	return e.ai.get(ap, sf.Active, act, src, nil, nil), true
}

// symbolize is resolveFact's inverse: it renders a live fact relative
// to the context's entry source. It fails (ok=false) only for facts a
// record cannot carry — which would indicate an engine invariant
// violation, so the caller skips persisting that context.
func (e *engine) symbolize(d *Abstraction, entrySrc *SourceRecord) (SymbolicFact, bool) {
	if d == e.zero {
		return SymbolicFact{Zero: true}, true
	}
	sf := SymbolicFact{Active: d.Active}
	ap := d.AP
	if ap == nil {
		return sf, false
	}
	if ap.Base != nil {
		sf.Base = ap.Base.Name
	} else {
		sf.StaticClass = ap.StaticRoot.Class.Name
		sf.StaticField = ap.StaticRoot.Name
	}
	for _, f := range ap.Fields {
		sf.Fields = append(sf.Fields, FieldSig{f.Class.Name, f.Name})
	}
	if !d.Active {
		if d.Activation == nil {
			return sf, false
		}
		sf.ActMethod = d.Activation.Method().String()
		sf.ActIndex = d.Activation.Index()
	}
	switch {
	case d.Source == nil:
		return sf, false
	case d.Source == entrySrc:
		sf.Entry = true
	default:
		if d.Source.Stmt == nil {
			return sf, false
		}
		rule := d.Source.Source
		sf.SrcMethod = d.Source.Stmt.Method().String()
		sf.SrcIndex = d.Source.Stmt.Index()
		sf.SrcRule = &rule
	}
	return sf, true
}

// methodBySig resolves "Class.name/nargs" against the program.
func (e *engine) methodBySig(sig string) *ir.Method {
	slash := strings.LastIndexByte(sig, '/')
	if slash < 0 {
		return nil
	}
	nargs, err := strconv.Atoi(sig[slash+1:])
	if err != nil {
		return nil
	}
	dot := strings.LastIndexByte(sig[:slash], '.')
	if dot < 0 {
		return nil
	}
	cls := e.icfg.Prog.Class(sig[:dot])
	if cls == nil {
		return nil
	}
	return cls.Method(sig[dot+1:slash], nargs)
}

// fieldBySig resolves a declared field, special-casing the engine's
// synthetic array-index pseudo-fields (interned per engine, not part of
// the program hierarchy).
func (e *engine) fieldBySig(fs FieldSig) *ir.Field {
	if fs.Class == "$array" {
		idx, err := strconv.ParseInt(strings.TrimPrefix(fs.Name, "idx"), 10, 64)
		if err != nil {
			return nil
		}
		return e.indexField(idx)
	}
	cls := e.icfg.Prog.Class(fs.Class)
	if cls == nil {
		return nil
	}
	return cls.Field(fs.Name)
}

// finalizeSummaries runs after the drain: it fills the store stats and,
// on a Completed run with a session attached, serializes every
// cacheable explored context into the session. Partial fixed points
// from truncated runs are never persisted.
func (e *engine) finalizeSummaries(completed bool) StoreStats {
	st := StoreStats{
		Hits:        e.stats.storeHits,
		Misses:      e.stats.storeMisses,
		Invalidated: e.stats.storeInvalidated,
		Corrupt:     e.stats.storeCorrupt,
		Uncacheable: e.stats.storeUncacheable,
	}

	// Methods actually walked: contexts with end summaries that were not
	// installed from the store. The entry methods (the synthetic
	// lifecycle mains) are excluded — they have no callers, so their
	// summaries are structurally unreusable and would put a fixed floor
	// under MethodsExplored on every warm run.
	explored := make(map[*ir.Method]bool)
	for key := range e.endSum {
		if e.sumDecision[key] != sumDecInstalled && !e.entrySet[key.m] {
			explored[key.m] = true
		}
	}
	st.MethodsExplored = len(explored)
	if st.Hits > 0 {
		// Reuse is what a cold run would have walked minus what this run
		// walked. Without a query cone, the zero fact explores every
		// reachable analyzable method, so the reachable set is the cold
		// baseline; with a cone, methods outside it are excluded (the
		// baseline a cold query run explores), and the entry methods are
		// excluded to match the explored count above.
		total := 0
		for _, m := range e.icfg.Graph.Reachable() {
			if m.Abstract() || m.EntryStmt() == nil || e.entrySet[m] {
				continue
			}
			if e.conf.Cone != nil && !e.conf.Cone.Relevant(m) {
				continue
			}
			total++
		}
		if st.MethodsReused = total - st.MethodsExplored; st.MethodsReused < 0 {
			st.MethodsReused = 0
		}
	}

	if completed && e.conf.Summaries != nil {
		st.Persisted = e.persistSummaries()
	}
	return st
}

// persistSummaries serializes every cacheable, live-explored context
// into the session. Transitive leaks are aggregated over the context
// graph (edges caller-context → callee-context from the incoming map),
// condensed over SCCs so recursion converges.
func (e *engine) persistSummaries() int {
	// Candidate contexts: callee contexts (they appear as incoming
	// keys), cacheable, not installed from the store. Entry methods'
	// contexts have no incoming edges and are never persisted — they are
	// re-explored every run (the synthetic main is cheap).
	type node = methodCtx
	nodes := make(map[node]bool)
	succs := make(map[node][]node)
	addNode := func(c node) {
		if !nodes[c] {
			nodes[c] = true
		}
	}
	for key := range e.endSum {
		addNode(key)
	}
	for key := range e.leakAttr {
		addNode(key)
	}
	for callee, inc := range e.incoming {
		addNode(callee)
		for _, cc := range inc.list {
			parent := node{cc.site.Method(), cc.d1}
			addNode(parent)
			succs[parent] = append(succs[parent], callee)
		}
	}
	order := make([]node, 0, len(nodes))
	for c := range nodes {
		order = append(order, c)
	}
	sccs, sccOf := condenseCtx(order, succs)

	// Aggregate leaks bottom-up over the condensation (reverse
	// topological order: successors first).
	agg := make([]map[leakKey]*Leak, len(sccs))
	for i, scc := range sccs {
		set := make(map[leakKey]*Leak)
		for _, c := range scc {
			for k, l := range e.leakAttr[c] {
				set[k] = l
			}
			for _, s := range succs[c] {
				if j := sccOf[s]; j != i {
					for k, l := range agg[j] {
						set[k] = l
					}
				}
			}
		}
		agg[i] = set
	}

	persisted := 0
	for callee := range e.incoming {
		if !e.cacheable(callee.d1) || e.sumDecision[callee] == sumDecInstalled {
			continue
		}
		if callee.d1 != e.zero && callee.d1.Source == nil {
			continue
		}
		rec, ok := e.serializeCtx(callee, agg[sccOf[callee]])
		if !ok {
			continue
		}
		e.conf.Summaries.Persist(callee.m, e.shapeOf(callee.d1), rec)
		persisted++
	}
	return persisted
}

// serializeCtx renders one context's record: its end summary (zero exit
// facts are skipped — returnFlow drops them) and the aggregated
// transitive leaks, both deduplicated and canonically ordered so the
// bytes written do not depend on discovery order.
func (e *engine) serializeCtx(key methodCtx, leaks map[leakKey]*Leak) (*MethodSummary, bool) {
	var entrySrc *SourceRecord
	if key.d1 != e.zero {
		entrySrc = key.d1.Source
	}
	rec := &MethodSummary{}
	type exitKey struct {
		exit ir.Stmt
		d2   *Abstraction
	}
	seenExit := make(map[exitKey]bool)
	for _, ep := range e.endSum[key] {
		if ep.d2 == e.zero {
			continue
		}
		ek := exitKey{ep.exit, ep.d2}
		if seenExit[ek] {
			continue
		}
		seenExit[ek] = true
		sf, ok := e.symbolize(ep.d2, entrySrc)
		if !ok {
			return nil, false
		}
		rec.Exits = append(rec.Exits, SummaryExit{ExitIndex: ep.exit.Index(), Fact: sf})
	}
	for _, l := range leaks {
		sf, ok := e.symbolize(l.Abstraction, entrySrc)
		if !ok {
			return nil, false
		}
		rec.Leaks = append(rec.Leaks, SummaryLeak{
			SinkMethod: l.Sink.Method().String(),
			SinkIndex:  l.Sink.Index(),
			Sink:       l.SinkSpec,
			Fact:       sf,
		})
	}
	sort.Slice(rec.Exits, func(i, j int) bool {
		a, b := rec.Exits[i], rec.Exits[j]
		if a.ExitIndex != b.ExitIndex {
			return a.ExitIndex < b.ExitIndex
		}
		return factOrd(a.Fact) < factOrd(b.Fact)
	})
	sort.Slice(rec.Leaks, func(i, j int) bool {
		a, b := rec.Leaks[i], rec.Leaks[j]
		if a.SinkMethod != b.SinkMethod {
			return a.SinkMethod < b.SinkMethod
		}
		if a.SinkIndex != b.SinkIndex {
			return a.SinkIndex < b.SinkIndex
		}
		if a.Sink.Label != b.Sink.Label {
			return a.Sink.Label < b.Sink.Label
		}
		return factOrd(a.Fact) < factOrd(b.Fact)
	})
	return rec, true
}

func factOrd(sf SymbolicFact) string { return fmt.Sprintf("%+v", sf) }

// condenseCtx is Tarjan's SCC algorithm over the context graph,
// iterative, returning components in reverse topological order.
func condenseCtx(nodes []methodCtx, succs map[methodCtx][]methodCtx) ([][]methodCtx, map[methodCtx]int) {
	index := make(map[methodCtx]int, len(nodes))
	low := make(map[methodCtx]int, len(nodes))
	onStack := make(map[methodCtx]bool, len(nodes))
	var stack []methodCtx
	var sccs [][]methodCtx
	next := 0

	type frame struct {
		c  methodCtx
		si int
	}
	for _, root := range nodes {
		if _, ok := index[root]; ok {
			continue
		}
		frames := []frame{{c: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.si < len(succs[f.c]) {
				s := succs[f.c][f.si]
				f.si++
				if _, ok := index[s]; !ok {
					index[s] = next
					low[s] = next
					next++
					stack = append(stack, s)
					onStack[s] = true
					frames = append(frames, frame{c: s})
				} else if onStack[s] && index[s] < low[f.c] {
					low[f.c] = index[s]
				}
				continue
			}
			if low[f.c] == index[f.c] {
				var scc []methodCtx
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == f.c {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			c := f.c
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].c
				if low[c] < low[p] {
					low[p] = low[c]
				}
			}
		}
	}
	sccOf := make(map[methodCtx]int, len(index))
	for i, scc := range sccs {
		for _, c := range scc {
			sccOf[c] = i
		}
	}
	return sccs, sccOf
}

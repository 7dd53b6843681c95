// Package scene provides the shared program-model layer every analysis
// phase queries: the analogue of Soot's Scene in FlowDroid's pipeline
// (Arzt et al., PLDI 2014). A Scene wraps an ir.Program with precomputed
// subtype sets, memoized method and field resolution, a shared
// invoke-target resolver, and a per-method CFG cache, so the
// callback analysis, Spark stand-in (pta), CHA builder, ICFG and taint
// engine all hit one memoized substrate instead of re-walking the class
// graph per query.
//
// A Scene implements ir.Hierarchy with semantics identical to
// *ir.Program (the tests cross-check both on adversarial hierarchies,
// including cyclic ones). A Scene belongs to one analysis, which runs on
// one goroutine, so its memo tables are unsynchronized. Refresh is
// required after the program gains classes, e.g. dummy-main generation.
package scene

import (
	"sort"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/cfg"
	"flowdroid/internal/ir"
)

// Scene is the cached program model. Create with New, refresh after
// mutating the underlying program's class set.
type Scene struct {
	prog *ir.Program

	// Immutable between Refresh calls.
	classes  []*ir.Class
	supers   map[string]map[string]bool // transitive supertypes (self excluded)
	subtypes map[string][]string        // inverted, sorted, self included

	// Lazy resolution caches.
	methodCache map[memberKey]*ir.Method
	fieldCache  map[memberKey]*ir.Field

	// resolver is built on first use; nil until then and after Refresh.
	resolver *callgraph.Resolver

	cfgs *cfg.Cache
}

// memberKey identifies a member-resolution question. nargs is unused
// (-1) for field lookups.
type memberKey struct {
	class string
	name  string
	nargs int
}

// New builds a Scene over prog, precomputing the type hierarchy eagerly.
// A nil program yields a scene over an empty one, so a malformed app
// fails in the stage that actually dereferences it, not here.
func New(prog *ir.Program) *Scene {
	if prog == nil {
		prog = ir.NewProgram()
	}
	s := &Scene{prog: prog, cfgs: cfg.NewCache()}
	s.rebuild()
	return s
}

// Program returns the wrapped program.
func (s *Scene) Program() *ir.Program { return s.prog }

// Refresh recomputes the hierarchy and drops the resolution caches after
// the underlying program changed (classes or members added). The CFG
// cache is kept: method bodies are immutable once finalized, so existing
// CFGs stay valid and new methods fill in lazily.
func (s *Scene) Refresh() { s.rebuild() }

// rebuild recomputes every program-derived index.
func (s *Scene) rebuild() {
	s.classes = s.prog.Classes()
	s.supers = make(map[string]map[string]bool, len(s.classes))
	s.subtypes = make(map[string][]string, len(s.classes))
	for _, c := range s.classes {
		s.supers[c.Name] = s.computeSupers(c.Name)
	}
	for _, c := range s.classes {
		s.subtypes[c.Name] = append(s.subtypes[c.Name], c.Name)
		for super := range s.supers[c.Name] {
			if super != c.Name {
				s.subtypes[super] = append(s.subtypes[super], c.Name)
			}
		}
	}
	for name := range s.subtypes {
		sort.Strings(s.subtypes[name])
	}
	s.methodCache = make(map[memberKey]*ir.Method)
	s.fieldCache = make(map[memberKey]*ir.Field)
	// The resolver indexes the old class set; rebuild it lazily.
	s.resolver = nil
}

// computeSupers collects every name reachable from start along superclass
// and interface edges. Names of missing classes are included (they are
// valid supertypes per Program.SubtypeOf) but contribute no further
// edges; cycles are tolerated.
func (s *Scene) computeSupers(start string) map[string]bool {
	out := make(map[string]bool)
	work := []string{start}
	seen := map[string]bool{start: true}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		c := s.prog.Class(name)
		if c == nil {
			continue
		}
		edges := append([]string{}, c.Interfaces...)
		if c.Super != "" {
			edges = append(edges, c.Super)
		}
		for _, e := range edges {
			if !seen[e] {
				seen[e] = true
				out[e] = true
				work = append(work, e)
			}
		}
	}
	return out
}

// Class returns the named class, or nil.
func (s *Scene) Class(name string) *ir.Class { return s.prog.Class(name) }

// Classes returns all classes in name order. The slice is shared and
// must not be mutated.
func (s *Scene) Classes() []*ir.Class { return s.classes }

// SubtypeOf reports whether sub is the same as, a subclass of, or an
// implementor of super. O(1) against the precomputed sets.
func (s *Scene) SubtypeOf(sub, super string) bool {
	return sub == super || s.supers[sub][super]
}

// SubtypesOf returns the names of every class that is a subtype of the
// named class or interface (including itself if declared), in name
// order. The slice is shared and must not be mutated.
func (s *Scene) SubtypesOf(name string) []string { return s.subtypes[name] }

// ResolveMethod finds the method (name, nargs) starting at class and
// walking up the superclass chain, then the transitive interfaces.
// Results — including misses — are memoized.
func (s *Scene) ResolveMethod(class, name string, nargs int) *ir.Method {
	k := memberKey{class, name, nargs}
	m, ok := s.methodCache[k]
	if !ok {
		m = s.prog.ResolveMethod(class, name, nargs)
		s.methodCache[k] = m
	}
	return m
}

// ResolveField finds the field by name starting at class and walking up
// the superclass chain. Results — including misses — are memoized.
func (s *Scene) ResolveField(class, name string) *ir.Field {
	k := memberKey{class, name, -1}
	f, ok := s.fieldCache[k]
	if !ok {
		f = s.prog.ResolveField(class, name)
		s.fieldCache[k] = f
	}
	return f
}

// Resolver returns the scene's shared invoke-target resolver, built on
// first use. It implements callgraph.ResolverProvider, so BuildCHA and
// the points-to builder adopt it automatically.
func (s *Scene) Resolver() *callgraph.Resolver {
	if s.resolver == nil {
		s.resolver = callgraph.NewResolver(s)
	}
	return s.resolver
}

// CFGs returns the scene's shared per-method CFG cache. It implements
// cfg.CacheProvider, so NewICFG and the IR verifier adopt it
// automatically and build each method's CFG once between them.
func (s *Scene) CFGs() *cfg.Cache { return s.cfgs }

// Hierarchy interface conformance (compile-time checks).
var (
	_ ir.Hierarchy               = (*Scene)(nil)
	_ ir.Hierarchy               = (*ir.Program)(nil)
	_ callgraph.ResolverProvider = (*Scene)(nil)
	_ cfg.CacheProvider          = (*Scene)(nil)
)

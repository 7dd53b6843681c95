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
// The hierarchy index is ir.SubtypeIndex; on an app program it extends
// the framework base's index, built once per process.
package scene

import (
	"flowdroid/internal/callgraph"
	"flowdroid/internal/cfg"
	"flowdroid/internal/ir"
)

// Scene is the cached program model. Create with New, refresh after
// adding classes to the underlying program.
type Scene struct {
	prog *ir.Program

	// Immutable between Refresh calls.
	classes []*ir.Class
	types   *ir.SubtypeIndex

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

// New builds a Scene over prog, indexing the type hierarchy eagerly. On
// a program cloned from the sealed framework base, only the app's own
// classes are indexed; the base's index is shared. A nil program yields
// a scene over an empty one, so a malformed app fails in the stage that
// actually dereferences it, not here.
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

// Refresh brings the scene up to date after classes were added to the
// underlying program (the constprop bridges, the dummy main). It extends
// the hierarchy index with the added classes and drops the resolution
// answers that mention them, plus the resolver, whose virtual-target
// sets depend on subtypes. Other answers stay: an added class is in no
// existing class's supertype chain, unless an existing class named it as
// a missing supertype, and then Refresh rebuilds everything. Members
// added to a class the scene already indexed are not seen; after load a
// program grows only by whole classes. The CFG cache is kept: method
// bodies are immutable once finalized, so existing CFGs stay valid and
// new methods fill in lazily.
func (s *Scene) Refresh() {
	added, ok := s.types.Extend(s.prog)
	if !ok {
		s.rebuild()
		return
	}
	if len(added) == 0 {
		return
	}
	s.classes = s.prog.Classes()
	fresh := make(map[string]bool, len(added))
	for _, c := range added {
		fresh[c.Name] = true
	}
	for k := range s.methodCache {
		if fresh[k.class] {
			delete(s.methodCache, k)
		}
	}
	for k := range s.fieldCache {
		if fresh[k.class] {
			delete(s.fieldCache, k)
		}
	}
	s.resolver = nil
}

// rebuild indexes the program afresh and drops every resolution answer.
func (s *Scene) rebuild() {
	s.classes = s.prog.Classes()
	s.types = ir.NewSubtypeIndex(s.prog)
	s.methodCache = make(map[memberKey]*ir.Method)
	s.fieldCache = make(map[memberKey]*ir.Field)
	// The resolver indexes the old class set; rebuild it lazily.
	s.resolver = nil
}

// Class returns the named class, or nil.
func (s *Scene) Class(name string) *ir.Class { return s.prog.Class(name) }

// Classes returns all classes in name order. The slice is shared and
// must not be mutated.
func (s *Scene) Classes() []*ir.Class { return s.classes }

// SubtypeOf reports whether sub is the same as, a subclass of, or an
// implementor of super. O(1) against the precomputed sets.
func (s *Scene) SubtypeOf(sub, super string) bool { return s.types.SubtypeOf(sub, super) }

// SubtypesOf returns the names of every class that is a subtype of the
// named class or interface (including itself if declared), in name
// order. The slice is shared and must not be mutated.
func (s *Scene) SubtypesOf(name string) []string { return s.types.SubtypesOf(name) }

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

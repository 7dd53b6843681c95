package ir

// Hierarchy is the program-model query surface the analyses resolve
// against: class lookup, subtyping, and member resolution. *Program
// implements it by walking the class graph on every call;
// internal/scene.Scene implements it with precomputed subtype sets and
// memoized resolution so that every downstream phase queries one shared,
// cached substrate (the analogue of Soot's Scene).
//
// Implementations must agree with *Program's semantics exactly; the
// scene package's tests cross-check the two on adversarial hierarchies.
type Hierarchy interface {
	// Class returns the named class, or nil.
	Class(name string) *Class
	// Classes returns all classes in name order.
	Classes() []*Class
	// SubtypeOf reports whether sub is the same as, a subclass of, or an
	// implementor of super.
	SubtypeOf(sub, super string) bool
	// SubtypesOf returns the names of every class that is a subtype of
	// the named class or interface, in name order. Callers must not
	// mutate the returned slice (cached implementations share it).
	SubtypesOf(name string) []string
	// ResolveMethod finds the method (name, nargs) starting at class and
	// walking up the superclass chain, then the transitive interfaces.
	ResolveMethod(class, name string, nargs int) *Method
	// ResolveField finds the field by name starting at class and walking
	// up the superclass chain.
	ResolveField(class, name string) *Field
}

// SubtypeIndex precomputes the subtype relation over a program's classes:
// each class's transitive supertypes and, for every type name, the sorted
// list of its subtypes. An index built for a clone of a sealed program
// extends the sealed program's index (its parent) instead of recomputing
// it: it holds the supertype sets of the clone's own classes and only
// those subtype lists that gained one of them. The parent's sets stay
// valid in every clone because a sealed index names no missing
// supertype (see Program.Seal).
//
// Its answers equal *Program's walks, cycles and missing supertype names
// included.
type SubtypeIndex struct {
	parent *SubtypeIndex
	// supers holds the transitive supertypes of each indexed class, self
	// excluded (nil when there are none).
	supers map[string]map[string]bool
	// subtypes holds the sorted subtype lists, self included, that differ
	// from the parent's. A list is never modified once stored, so callers
	// may keep the slices SubtypesOf returns.
	subtypes map[string][]string
}

// NewSubtypeIndex indexes every class of p, extending the index of the
// sealed program p was cloned from, if any.
func NewSubtypeIndex(p *Program) *SubtypeIndex {
	x := &SubtypeIndex{
		parent:   p.types,
		supers:   make(map[string]map[string]bool),
		subtypes: make(map[string][]string),
	}
	x.add(p, x.unindexed(p))
	return x
}

// Extend indexes the classes p gained since x was built or last extended
// and returns them in name order. Existing classes keep their supertype
// sets, so each gained class only joins the subtype lists of its own
// supertypes. That fails if a gained class was already named as a
// supertype: the classes naming it would gain supertypes. Extend then
// changes nothing and reports false, and the caller must build a new
// index.
func (x *SubtypeIndex) Extend(p *Program) (added []*Class, ok bool) {
	added = x.unindexed(p)
	for _, c := range added {
		if x.SubtypesOf(c.Name) != nil {
			return nil, false
		}
	}
	x.add(p, added)
	return added, true
}

// SubtypeOf reports whether sub is the same as, a subclass of, or an
// implementor of super.
func (x *SubtypeIndex) SubtypeOf(sub, super string) bool {
	if sub == super {
		return true
	}
	set, _ := x.supersOf(sub)
	return set[super]
}

// SubtypesOf returns the names of every class that is a subtype of the
// named type (itself included if declared), in name order. The slice is
// shared and must not be modified.
func (x *SubtypeIndex) SubtypesOf(name string) []string {
	for ; x != nil; x = x.parent {
		if l, ok := x.subtypes[name]; ok {
			return l
		}
	}
	return nil
}

// supersOf returns the supertype set of an indexed class, and whether the
// class is indexed.
func (x *SubtypeIndex) supersOf(name string) (map[string]bool, bool) {
	for ; x != nil; x = x.parent {
		if set, ok := x.supers[name]; ok {
			return set, true
		}
	}
	return nil, false
}

// unindexed returns p's classes that x does not index, in name order.
func (x *SubtypeIndex) unindexed(p *Program) []*Class {
	var out []*Class
	for _, c := range p.Classes() {
		if _, ok := x.supersOf(c.Name); !ok {
			out = append(out, c)
		}
	}
	return out
}

// add indexes cs, which are in name order.
func (x *SubtypeIndex) add(p *Program, cs []*Class) {
	for _, c := range cs {
		x.supers[c.Name] = x.supertypes(p, c.Name)
	}
	// Each class joins its own list and those of its supertypes; cs is in
	// name order, so every list of joiners is sorted.
	joins := make(map[string][]string)
	for _, c := range cs {
		joins[c.Name] = append(joins[c.Name], c.Name)
		for super := range x.supers[c.Name] {
			joins[super] = append(joins[super], c.Name)
		}
	}
	for name, names := range joins {
		x.subtypes[name] = mergeNames(x.SubtypesOf(name), names)
	}
}

// supertypes collects every name reachable from start along superclass
// and interface edges, start excluded. Names of missing classes are
// included (they are valid supertypes per Program.SubtypeOf) but have no
// edges; cycles are tolerated. The walk stops at an indexed class and
// takes its set instead.
func (x *SubtypeIndex) supertypes(p *Program, start string) map[string]bool {
	var out map[string]bool
	var buf [8]string
	work := append(buf[:0], start)
	reach := func(name string) {
		if name == start || out[name] {
			return
		}
		if out == nil {
			out = make(map[string]bool)
		}
		out[name] = true
		set, indexed := x.supersOf(name)
		if !indexed {
			work = append(work, name)
			return
		}
		for s := range set {
			if s != start {
				out[s] = true
			}
		}
	}
	for len(work) > 0 {
		c := p.classes[work[len(work)-1]]
		work = work[:len(work)-1]
		if c == nil {
			continue
		}
		for _, in := range c.Interfaces {
			reach(in)
		}
		if c.Super != "" {
			reach(c.Super)
		}
	}
	return out
}

// mergeNames returns the sorted union of two disjoint sorted lists in a
// new slice, or b itself when a is empty.
func mergeNames(a, b []string) []string {
	if len(a) == 0 {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

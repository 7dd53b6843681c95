package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Program is a closed world of classes: the app's own classes plus the
// framework model they link against. All name resolution (fields, methods,
// subtyping) happens against a Program.
type Program struct {
	classes map[string]*Class
	// order lists the classes in the order they were added. A clone
	// shares its source's array, capped at its length, so the clone's
	// first AddClass copies it.
	order []*Class
	// sorted caches Classes(): the first len(sorted) classes of order,
	// in name order, filled under sortOnce. AddClass resets the once, and
	// the next Classes merges in the classes added since. The once orders
	// the fill before every read, so concurrent readers of a finished
	// program may fill it.
	sortOnce sync.Once
	sorted   []*Class
	// types is the subtype index of the sealed program this one was
	// cloned from, or of this one if it is sealed; nil if there is none.
	types *SubtypeIndex
	// pending lists the methods declared with a body to parse on demand,
	// in declaration order; onParse runs on each such body once parsed.
	pending []*Method
	onParse func(*Method, []Stmt) error
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class)}
}

// Clone returns a program holding the same classes as p. The two share
// their *Class values, which both must then treat as read-only; a class
// added to either program is invisible to the other. The framework model
// is linked and sealed once and cloned into every app's program this way.
func (p *Program) Clone() *Program {
	c := &Program{
		classes: make(map[string]*Class, 2*len(p.classes)), // room for an app's classes
		order:   p.order[:len(p.order):len(p.order)],
		sorted:  p.Classes(),
		types:   p.types,
	}
	for name, cls := range p.classes {
		c.classes[name] = cls
	}
	return c
}

// Seal readies a finished program to be cloned and shared. It fills the
// caches that readers would otherwise fill on first use (the sorted class
// list and each class's sorted methods), so readers of a shared class
// only load them, and it indexes the subtype relation once for every
// clone to extend (see NewSubtypeIndex). A program whose classes name a
// missing supertype gets no index: declaring that name later would
// change those classes' supertype sets.
func (p *Program) Seal() {
	for _, c := range p.Classes() {
		c.Methods()
	}
	x := NewSubtypeIndex(p)
	for name := range x.subtypes {
		if p.classes[name] == nil {
			return
		}
	}
	p.types = x
}

// AddClass registers a class; it returns an error on duplicate names.
func (p *Program) AddClass(c *Class) error {
	if _, dup := p.classes[c.Name]; dup {
		return fmt.Errorf("duplicate class %s", c.Name)
	}
	p.classes[c.Name] = c
	p.order = append(p.order, c)
	p.sortOnce = sync.Once{}
	return nil
}

// Class returns the named class, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Classes returns all classes in name order. The slice is cached; a call
// after AddClass sorts only the classes added since the cached list and
// merges them into a new one. Callers must not modify it.
func (p *Program) Classes() []*Class {
	p.sortOnce.Do(p.mergeAdded)
	return p.sorted
}

// mergeAdded sorts the classes added since the cached list and merges
// them into a new one.
func (p *Program) mergeAdded() {
	old := p.sorted
	if len(old) == len(p.order) {
		return
	}
	// Sort the added classes into the front of out, then merge old in
	// from the back: every write lands at or after the next unread
	// element of the front run, so the merge needs no second buffer.
	out := make([]*Class, len(p.order))
	added := out[:len(p.order)-len(old)]
	copy(added, p.order[len(old):])
	slices.SortFunc(added, func(a, b *Class) int { return strings.Compare(a.Name, b.Name) })
	i, j := len(old)-1, len(added)-1
	for k := len(out) - 1; i >= 0; k-- {
		if j >= 0 && added[j].Name > old[i].Name {
			out[k] = added[j]
			j--
		} else {
			out[k] = old[i]
			i--
		}
	}
	p.sorted = out
}

// Methods returns every method of every class, in deterministic order.
func (p *Program) Methods() []*Method {
	var out []*Method
	for _, c := range p.Classes() {
		out = append(out, c.Methods()...)
	}
	return out
}

// SubtypeOf reports whether sub is the same as, a subclass of, or an
// implementor of super, following superclass and interface edges. Cyclic
// hierarchies (which only malformed inputs can produce) are tolerated.
func (p *Program) SubtypeOf(sub, super string) bool {
	return p.subtypeOf(sub, super, nil)
}

func (p *Program) subtypeOf(sub, super string, seen map[string]bool) bool {
	if sub == super {
		return true
	}
	if seen[sub] {
		return false
	}
	c := p.classes[sub]
	if c == nil {
		return false
	}
	if seen == nil {
		seen = make(map[string]bool)
	}
	seen[sub] = true
	if c.Super != "" && p.subtypeOf(c.Super, super, seen) {
		return true
	}
	for _, in := range c.Interfaces {
		if p.subtypeOf(in, super, seen) {
			return true
		}
	}
	return false
}

// SubtypesOf returns the names of every class that is a subtype of the
// named class or interface (including itself if declared), in name order.
func (p *Program) SubtypesOf(name string) []string {
	var out []string
	for cn := range p.classes {
		if p.SubtypeOf(cn, name) {
			out = append(out, cn)
		}
	}
	sort.Strings(out)
	return out
}

// ResolveMethod finds the method (name, nargs) starting at class and
// walking up the superclass chain, then the transitive interfaces. It
// returns nil if no declaration is found.
func (p *Program) ResolveMethod(class, name string, nargs int) *Method {
	for cn := class; cn != ""; {
		c := p.classes[cn]
		if c == nil {
			return nil
		}
		if m := c.Method(name, nargs); m != nil {
			return m
		}
		cn = c.Super
	}
	// Fall back to interface declarations (for callback interfaces).
	if c := p.classes[class]; c != nil {
		for _, in := range c.Interfaces {
			if m := p.ResolveMethod(in, name, nargs); m != nil {
				return m
			}
		}
	}
	return nil
}

// ResolveField finds the field by name starting at class and walking up
// the superclass chain. It returns nil if no declaration is found.
func (p *Program) ResolveField(class, name string) *Field {
	for cn := class; cn != ""; {
		c := p.classes[cn]
		if c == nil {
			return nil
		}
		if f := c.Field(name); f != nil {
			return f
		}
		cn = c.Super
	}
	return nil
}

// Link prepares the program for analysis: it finalizes method bodies,
// runs local type inference to a fixed point, and resolves field
// references to their declarations. It links what changed since the last
// Link: the classes added since then and the classes that gained a
// method or a new body. Link must be called after classes are added and
// before any analysis of them runs. A pending body is not linked here:
// it is linked when it is parsed.
func (p *Program) Link() error {
	var stale []*Class
	for _, c := range p.Classes() {
		if !c.linked {
			stale = append(stale, c)
		}
	}
	return p.link(stale)
}

// link links the given classes against the whole program. Inference and
// field resolution read only declarations and the method's own locals, so
// linking a class never needs another class's bodies to be linked.
func (p *Program) link(cs []*Class) error {
	var bodies []*Method
	for _, c := range cs {
		for _, m := range c.Methods() {
			if m.This != nil && m.This.Type.IsUnknown() {
				m.This.Type = Ref(c.Name)
			}
			if m.pending != nil {
				continue
			}
			if err := m.Finalize(); err != nil {
				return err
			}
			if !m.Abstract() {
				bodies = append(bodies, m)
			}
		}
	}
	// Local type inference: propagate types through copies, allocations,
	// casts, loads and calls until nothing changes. The inference is a
	// best effort; remaining unknown types degrade dispatch precision but
	// never correctness (callers fall back to name-based CHA).
	for changed := true; changed; {
		changed = false
		for _, m := range bodies {
			if p.inferMethod(m, false) {
				changed = true
			}
		}
	}
	for _, m := range bodies {
		if err := p.resolveFields(m, false); err != nil {
			return err
		}
	}
	for _, c := range cs {
		if !c.linked { // a linked class may be shared: never write to it
			c.linked = true
		}
	}
	return nil
}

// linkMethod links a body parsed on demand by itself, which gives the
// same result as linking it with the rest of its class: inference and
// field resolution read only declarations and the method's own locals.
// The name fallbacks see only the load-time class set (see visible), so
// a body parsed after the analyses added their synthetic classes links
// exactly as it would have at load.
func (p *Program) linkMethod(m *Method) error {
	if err := m.Finalize(); err != nil {
		return err
	}
	for p.inferMethod(m, true) {
	}
	return p.resolveFields(m, true)
}

// visible reports whether the program-wide name fallbacks may pick c.
// Those linking a body parsed on demand (loaded) skip the synthetic
// classes (dummy main, reflection bridges), which arrive after load.
func visible(c *Class, loaded bool) bool { return !loaded || !c.Synthetic }

// inferMethod runs one round of local type inference over m's body and
// reports whether a type changed. It reads the body field directly: it
// runs inside the parse of a pending body, whose accessors would wait on
// that parse.
func (p *Program) inferMethod(m *Method, loaded bool) bool {
	changed := false
	set := func(l *Local, t Type) {
		if l.Type.IsUnknown() && !t.IsUnknown() && t.Kind != VoidType {
			l.Type = t
			changed = true
		}
	}
	for _, s := range m.body {
		a, ok := s.(*AssignStmt)
		if !ok {
			continue
		}
		lhs, ok := a.LHS.(*Local)
		if !ok {
			continue
		}
		switch rhs := a.RHS.(type) {
		case *Local:
			set(lhs, rhs.Type)
		case *New:
			set(lhs, rhs.Type)
		case *NewArray:
			set(lhs, ArrayOf(rhs.Elem))
		case *Cast:
			set(lhs, rhs.To)
		case *Const:
			switch rhs.Kind {
			case IntConst, ResConst:
				set(lhs, Int)
			case StringConst:
				set(lhs, Ref("java.lang.String"))
			}
		case *Binop:
			set(lhs, binopType(rhs))
		case *FieldRef:
			if t := p.fieldRefType(rhs); !t.IsUnknown() {
				set(lhs, t)
			}
		case *StaticFieldRef:
			if f := p.ResolveField(rhs.Class, rhs.Name); f != nil {
				set(lhs, f.Type)
			}
		case *ArrayRef:
			if rhs.Base.Type.IsArray() {
				set(lhs, *rhs.Base.Type.Elem)
			}
		case *InvokeExpr:
			if t := p.returnTypeOf(rhs, loaded); !t.IsUnknown() {
				set(lhs, t)
			}
		}
	}
	return changed
}

func binopType(b *Binop) Type {
	str := Ref("java.lang.String")
	if l, ok := b.L.(*Local); ok && l.Type.Equal(str) {
		return str
	}
	if r, ok := b.R.(*Local); ok && r.Type.Equal(str) {
		return str
	}
	if c, ok := b.L.(*Const); ok && c.Kind == StringConst {
		return str
	}
	if c, ok := b.R.(*Const); ok && c.Kind == StringConst {
		return str
	}
	return Int
}

func (p *Program) fieldRefType(r *FieldRef) Type {
	if r.Field != nil {
		return r.Field.Type
	}
	if r.Base.Type.IsRef() {
		if f := p.ResolveField(r.Base.Type.Name, r.Name); f != nil {
			return f.Type
		}
	}
	return Unknown
}

// returnTypeOf finds the declared return type of an invocation's static
// target, if resolvable.
func (p *Program) returnTypeOf(e *InvokeExpr, loaded bool) Type {
	cls := e.Ref.Class
	if e.Kind == VirtualInvoke && e.Base != nil && e.Base.Type.IsRef() {
		cls = e.Base.Type.Name
	}
	if m := p.ResolveMethod(cls, e.Ref.Name, e.Ref.NArgs); m != nil {
		return m.Return
	}
	// Name-based fallback: if exactly one class declares the method,
	// use its return type.
	var found *Method
	for _, c := range p.classes {
		if !visible(c, loaded) {
			continue
		}
		if m := c.Method(e.Ref.Name, e.Ref.NArgs); m != nil {
			if found != nil && !found.Return.Equal(m.Return) {
				return Unknown
			}
			found = m
		}
	}
	if found != nil {
		return found.Return
	}
	return Unknown
}

func (p *Program) resolveFields(m *Method, loaded bool) error {
	resolveRef := func(r *FieldRef) error {
		if r.Field != nil {
			return nil
		}
		if r.Base.Type.IsRef() {
			if f := p.ResolveField(r.Base.Type.Name, r.Name); f != nil {
				r.Field = f
				return nil
			}
		}
		// Unique-name fallback across the whole program, in class-name
		// order so an ambiguity is reported the same way every time.
		var found *Field
		for _, c := range p.Classes() {
			if !visible(c, loaded) {
				continue
			}
			if f := c.Field(r.Name); f != nil {
				if found != nil {
					return fmt.Errorf("%s: ambiguous field %q on %s (declared in both %s and %s)",
						m, r.Name, r.Base.Name, found.Class.Name, c.Name)
				}
				found = f
			}
		}
		if found == nil {
			return fmt.Errorf("%s: cannot resolve field %q on %s", m, r.Name, r.Base.Name)
		}
		r.Field = found
		return nil
	}
	resolveStatic := func(r *StaticFieldRef) error {
		if r.Field != nil {
			return nil
		}
		f := p.ResolveField(r.Class, r.Name)
		if f == nil {
			return fmt.Errorf("%s: cannot resolve static field %s.%s", m, r.Class, r.Name)
		}
		r.Field = f
		return nil
	}
	resolveVal := func(v Value) error {
		switch v := v.(type) {
		case *FieldRef:
			return resolveRef(v)
		case *StaticFieldRef:
			return resolveStatic(v)
		}
		return nil
	}
	for _, s := range m.body {
		if a, ok := s.(*AssignStmt); ok {
			if err := resolveVal(a.LHS); err != nil {
				return err
			}
			if err := resolveVal(a.RHS); err != nil {
				return err
			}
			if b, ok := a.RHS.(*Binop); ok {
				if err := resolveVal(b.L); err != nil {
					return err
				}
				if err := resolveVal(b.R); err != nil {
					return err
				}
			}
			if c, ok := a.RHS.(*Cast); ok {
				if err := resolveVal(c.X); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Program is a closed world of classes: the app's own classes plus the
// framework model they link against. All name resolution (fields, methods,
// subtyping) happens against a Program.
type Program struct {
	classes map[string]*Class
	// sorted caches Classes(); AddClass clears it. It is atomic so that
	// concurrent readers of a finished program may fill it.
	sorted atomic.Pointer[[]*Class]
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class)}
}

// Clone returns a program holding the same classes as p. The two share
// their *Class values, which both must then treat as read-only; a class
// added to either program is invisible to the other. The framework model
// is linked once and cloned into every app's program this way.
func (p *Program) Clone() *Program {
	c := &Program{classes: make(map[string]*Class, 2*len(p.classes))} // room for an app's classes
	for name, cls := range p.classes {
		c.classes[name] = cls
	}
	c.sorted.Store(p.sorted.Load())
	return c
}

// AddClass registers a class; it returns an error on duplicate names.
func (p *Program) AddClass(c *Class) error {
	if _, dup := p.classes[c.Name]; dup {
		return fmt.Errorf("duplicate class %s", c.Name)
	}
	p.classes[c.Name] = c
	p.sorted.Store(nil)
	return nil
}

// Class returns the named class, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Classes returns all classes in name order. The slice is cached until
// the next AddClass; callers must not modify it.
func (p *Program) Classes() []*Class {
	if out := p.sorted.Load(); out != nil {
		return *out
	}
	out := make([]*Class, 0, len(p.classes))
	for _, c := range p.classes {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b *Class) int { return strings.Compare(a.Name, b.Name) })
	p.sorted.Store(&out)
	return out
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
// before any analysis of them runs.
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
			if p.inferMethod(m) {
				changed = true
			}
		}
	}
	for _, m := range bodies {
		if err := p.resolveFields(m); err != nil {
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

func (p *Program) inferMethod(m *Method) bool {
	changed := false
	set := func(l *Local, t Type) {
		if l.Type.IsUnknown() && !t.IsUnknown() && t.Kind != VoidType {
			l.Type = t
			changed = true
		}
	}
	for _, s := range m.Body() {
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
			if t := p.returnTypeOf(rhs); !t.IsUnknown() {
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
func (p *Program) returnTypeOf(e *InvokeExpr) Type {
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

func (p *Program) resolveFields(m *Method) error {
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
	for _, s := range m.Body() {
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

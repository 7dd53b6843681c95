package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Program is a closed world of classes: the app's own classes plus the
// framework model they link against. All name resolution (fields, methods,
// subtyping) happens against a Program.
type Program struct {
	classes map[string]*Class
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class)}
}

// AddClass registers a class; it returns an error on duplicate names.
func (p *Program) AddClass(c *Class) error {
	if _, dup := p.classes[c.Name]; dup {
		return fmt.Errorf("duplicate class %s", c.Name)
	}
	p.classes[c.Name] = c
	return nil
}

// Class returns the named class, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Classes returns all classes in name order.
func (p *Program) Classes() []*Class {
	out := make([]*Class, 0, len(p.classes))
	for _, c := range p.classes {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b *Class) int { return strings.Compare(a.Name, b.Name) })
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

// Link prepares the program for analysis: it finalizes every method body,
// runs local type inference to a fixed point, and resolves all field
// references to their declarations. It must be called after all classes
// have been added and before any analysis runs. Linking is idempotent.
func (p *Program) Link() error {
	for _, c := range p.Classes() {
		for _, m := range c.Methods() {
			if m.This != nil && m.This.Type.IsUnknown() {
				m.This.Type = Ref(c.Name)
			}
			if err := m.Finalize(); err != nil {
				return err
			}
		}
	}
	// Local type inference: propagate types through copies, allocations,
	// casts, loads and calls until nothing changes. The inference is a
	// best effort; remaining unknown types degrade dispatch precision but
	// never correctness (callers fall back to name-based CHA).
	for changed := true; changed; {
		changed = false
		for _, c := range p.Classes() {
			for _, m := range c.Methods() {
				if p.inferMethod(m) {
					changed = true
				}
			}
		}
	}
	// Field resolution.
	for _, c := range p.Classes() {
		for _, m := range c.Methods() {
			if err := p.resolveFields(m); err != nil {
				return err
			}
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
		// Unique-name fallback across the whole program.
		var found *Field
		for _, c := range p.classes {
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

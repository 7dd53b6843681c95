package ir

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Field is a field declaration. Identity is pointer identity; access paths
// intern on *Field, so every reference to the same declared field must
// resolve to the same pointer (Program.Link guarantees this).
type Field struct {
	Class  *Class
	Name   string
	Type   Type
	Static bool
}

// String renders the field as "Class.Name".
func (f *Field) String() string { return f.Class.Name + "." + f.Name }

// Class is a class or interface declaration.
type Class struct {
	Name       string
	Super      string // "" for roots such as java.lang.Object
	Interfaces []string
	Interface  bool // declared as an interface
	// Synthetic marks classes an analysis generates after load (the
	// lifecycle dummy main, the constprop reflection bridges) rather
	// than loaded from an app or the framework model. Bodies parsed on
	// demand link as if these classes did not exist.
	Synthetic bool
	// File and Line locate the class declaration in its source file; the
	// parser records them so diagnostics can be positioned. Both are zero
	// for programmatically built classes.
	File string
	Line int

	fields  map[string]*Field
	methods map[methodKey]*Method
	// sortedMethods caches Methods(), filled under methodsOnce; AddMethod
	// resets both. The once orders the fill before every read, so
	// concurrent readers of a finished class may fill it.
	methodsOnce   sync.Once
	sortedMethods []*Method
	// linked is set by Program.Link and cleared when the class gains a
	// method or one of its methods a new body.
	linked bool
}

type methodKey struct {
	name  string
	nargs int
}

// NewClass creates an empty class with the given name and superclass.
func NewClass(name, super string) *Class {
	return &Class{
		Name:    name,
		Super:   super,
		fields:  make(map[string]*Field),
		methods: make(map[methodKey]*Method),
	}
}

// AddField declares a field; it returns an error if the name is taken.
func (c *Class) AddField(name string, typ Type, static bool) (*Field, error) {
	if _, dup := c.fields[name]; dup {
		return nil, fmt.Errorf("class %s: duplicate field %s", c.Name, name)
	}
	f := &Field{Class: c, Name: name, Type: typ, Static: static}
	c.fields[name] = f
	return f, nil
}

// Field returns the field declared directly on this class, or nil.
func (c *Class) Field(name string) *Field { return c.fields[name] }

// Fields returns the declared fields in name order.
func (c *Class) Fields() []*Field {
	out := make([]*Field, 0, len(c.fields))
	for _, f := range c.fields {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddMethod attaches a method; it returns an error on duplicate
// (name, arity) pairs.
func (c *Class) AddMethod(m *Method) error {
	k := methodKey{m.Name, len(m.Params)}
	if _, dup := c.methods[k]; dup {
		return fmt.Errorf("class %s: duplicate method %s/%d", c.Name, m.Name, len(m.Params))
	}
	m.Class = c
	c.methods[k] = m
	c.methodsOnce = sync.Once{}
	c.sortedMethods = nil
	c.linked = false
	return nil
}

// Method returns the method declared directly on this class with the given
// name and argument count, or nil.
func (c *Class) Method(name string, nargs int) *Method {
	return c.methods[methodKey{name, nargs}]
}

// MethodsNamed returns all methods declared on this class with the given
// name, regardless of arity, in arity order.
func (c *Class) MethodsNamed(name string) []*Method {
	var out []*Method
	for k, m := range c.methods {
		if k.name == name {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return len(out[i].Params) < len(out[j].Params) })
	return out
}

// Methods returns the declared methods sorted by name then arity. The
// slice is cached until the next AddMethod; callers must not modify it.
func (c *Class) Methods() []*Method {
	c.methodsOnce.Do(func() {
		out := make([]*Method, 0, len(c.methods))
		for _, m := range c.methods {
			out = append(out, m)
		}
		slices.SortFunc(out, func(a, b *Method) int {
			if c := strings.Compare(a.Name, b.Name); c != 0 {
				return c
			}
			return len(a.Params) - len(b.Params)
		})
		c.sortedMethods = out
	})
	return c.sortedMethods
}

// Method is a method declaration with an optional body. Framework stubs
// have no body (Abstract reports true); the taint analysis treats calls to
// them via taint-wrapper or native-call rules instead of descending. A
// body may be pending: declared with its source span and parsed on first
// use (see SetPendingBody).
type Method struct {
	Class  *Class
	Name   string
	Static bool
	Return Type
	Params []*Local
	// This is the implicit receiver local; nil for static methods.
	This *Local

	body      []Stmt
	locals    map[string]*Local
	finalized bool
	// pending is set for a body held as source; it stays set once the
	// body is parsed, and its once-guard orders every read of body.
	pending *pendingBody
}

// NewMethod creates a method shell. Call AddParam/SetBody/Finalize (or use
// the Builder) before analysis.
func NewMethod(name string, ret Type, static bool) *Method {
	m := &Method{Name: name, Static: static, Return: ret, locals: make(map[string]*Local)}
	if !static {
		m.This = &Local{Name: "this", Declared: true}
		m.locals["this"] = m.This
	}
	return m
}

// Ref returns the MethodRef designating this method.
func (m *Method) Ref() MethodRef {
	return MethodRef{Class: m.Class.Name, Name: m.Name, NArgs: len(m.Params)}
}

// String renders the method as "Class.Name/NArgs".
func (m *Method) String() string {
	return fmt.Sprintf("%s.%s/%d", m.className(), m.Name, len(m.Params))
}

// CompareMethods orders methods by class name, then name, then arity —
// the order of their String forms' parts, without rendering them.
func CompareMethods(a, b *Method) int {
	if c := cmp.Compare(a.className(), b.className()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return cmp.Compare(len(a.Params), len(b.Params))
}

func (m *Method) className() string {
	if m.Class == nil {
		return "?"
	}
	return m.Class.Name
}

// AddParam declares a parameter local.
func (m *Method) AddParam(name string, typ Type) (*Local, error) {
	l, err := m.addLocal(name, typ)
	if err != nil {
		return nil, err
	}
	l.Declared = true
	m.Params = append(m.Params, l)
	return l, nil
}

func (m *Method) addLocal(name string, typ Type) (*Local, error) {
	if _, dup := m.locals[name]; dup {
		return nil, fmt.Errorf("method %s: duplicate local %s", m.Name, name)
	}
	l := &Local{Name: name, Type: typ}
	m.locals[name] = l
	return l, nil
}

// Local returns the named local, creating it with the unknown type if it
// does not exist yet. This is the lookup used by builders and the parser,
// where mentioning a fresh name declares it; it never parses a pending
// body.
func (m *Method) Local(name string) *Local {
	if l, ok := m.locals[name]; ok {
		return l
	}
	l := &Local{Name: name}
	m.locals[name] = l
	return l
}

// HasLocal reports whether m has a local of that name, without creating
// it and without parsing a pending body: the check a parser makes while
// it builds the body.
func (m *Method) HasLocal(name string) bool { return m.locals[name] != nil }

// LookupLocal returns the named local or nil, without creating it.
func (m *Method) LookupLocal(name string) *Local {
	m.force()
	return m.locals[name]
}

// Locals returns all locals (including params and the receiver) in name
// order.
func (m *Method) Locals() []*Local {
	m.force()
	out := make([]*Local, 0, len(m.locals))
	for _, l := range m.locals {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Body returns the statement list; empty for abstract/stub methods. A
// pending body is parsed and linked first; one that does not parse
// panics with the positioned parse error.
func (m *Method) Body() []Stmt {
	m.force()
	return m.body
}

// Abstract reports whether the method has no statements (framework
// stub). It never parses a pending body: the load-time scan answers.
func (m *Method) Abstract() bool {
	if m.pending != nil {
		return m.pending.facts.Empty
	}
	return len(m.body) == 0
}

// SetBody installs the statement list, replacing a pending body. Call
// Finalize afterwards, or Program.Link, which re-links the method's class.
func (m *Method) SetBody(body []Stmt) {
	m.pending = nil
	m.body = body
	m.finalized = false
	if m.Class != nil {
		m.Class.linked = false
	}
}

// Finalize numbers the statements, binds them to the method, resolves
// branch targets, and guarantees the body ends in a return. It must be
// called (directly or via Program.Link) before the body is analyzed.
func (m *Method) Finalize() error {
	if m.finalized {
		return nil
	}
	if len(m.body) == 0 {
		m.finalized = true
		return nil
	}
	// Ensure the body ends with an explicit return so the CFG has a
	// single well-defined set of exits.
	if _, ok := m.body[len(m.body)-1].(*ReturnStmt); !ok {
		if _, ok := m.body[len(m.body)-1].(*GotoStmt); !ok {
			m.body = append(m.body, &ReturnStmt{})
		}
	}
	labels := make(map[string]int)
	for i, s := range m.body {
		if l := s.Label(); l != "" {
			if _, dup := labels[l]; dup {
				return fmt.Errorf("%s: duplicate label %q", m, l)
			}
			labels[l] = i
		}
	}
	for i, s := range m.body {
		switch s := s.(type) {
		case *AssignStmt:
			s.method, s.index = m, i
		case *InvokeStmt:
			s.method, s.index = m, i
		case *IfStmt:
			s.method, s.index = m, i
			t, ok := labels[s.Target]
			if !ok {
				return fmt.Errorf("%s: undefined label %q", m, s.Target)
			}
			s.TargetIndex = t
		case *GotoStmt:
			s.method, s.index = m, i
			t, ok := labels[s.Target]
			if !ok {
				return fmt.Errorf("%s: undefined label %q", m, s.Target)
			}
			s.TargetIndex = t
		case *ReturnStmt:
			s.method, s.index = m, i
		case *NopStmt:
			s.method, s.index = m, i
		default:
			return fmt.Errorf("%s: unknown statement kind %T", m, s)
		}
	}
	m.finalized = true
	return nil
}

// EntryStmt returns the first statement of the body, or nil for stubs.
func (m *Method) EntryStmt() Stmt {
	m.force()
	if len(m.body) == 0 {
		return nil
	}
	return m.body[0]
}

// ExitStmts returns all return statements of the body.
func (m *Method) ExitStmts() []Stmt {
	m.force()
	var out []Stmt
	for _, s := range m.body {
		if _, ok := s.(*ReturnStmt); ok {
			out = append(out, s)
		}
	}
	return out
}

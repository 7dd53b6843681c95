package ir

import (
	"fmt"
	"strings"
)

// Value is the interface implemented by everything that can appear on the
// right-hand side of an assignment or as an operand. Left-hand sides are
// the subset of values that designate storage: *Local, *FieldRef,
// *StaticFieldRef and *ArrayRef.
type Value interface {
	valueNode()
	String() string
}

// Local is a method-scoped variable (including parameters and the implicit
// receiver). Locals are unique per method; identity is pointer identity.
type Local struct {
	Name string
	Type Type
	// Declared marks locals introduced by an explicit "local x: T"
	// declaration, a parameter, or the implicit receiver — names whose
	// existence is guaranteed before any assignment. The definite-
	// assignment analyzer treats them as initialized at method entry.
	Declared bool
}

func (*Local) valueNode()       {}
func (l *Local) String() string { return l.Name }

// ConstKind discriminates constant values.
type ConstKind int

const (
	// IntConst is an integer literal.
	IntConst ConstKind = iota
	// StringConst is a string literal.
	StringConst
	// NullConst is the null literal.
	NullConst
	// ResConst is a symbolic Android resource reference such as
	// "@id/pwdString" or "@layout/main"; the app loader resolves it to an
	// integer via the package's resource table.
	ResConst
)

// Const is a literal operand.
type Const struct {
	Kind ConstKind
	Int  int64  // IntConst value, or the resolved id of a ResConst
	Str  string // StringConst value, or the symbolic name of a ResConst
}

func (*Const) valueNode() {}

func (c *Const) String() string {
	switch c.Kind {
	case IntConst:
		return fmt.Sprintf("%d", c.Int)
	case StringConst:
		return quote(c.Str)
	case NullConst:
		return "null"
	case ResConst:
		return "@" + c.Str
	}
	return "?"
}

// quote renders s as a string literal that the IR lexer reads back as s.
// It escapes only what the lexer decodes — '"' and '\\' as escaped
// bytes, newline and tab as \n and \t — and writes every other byte raw.
func quote(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 2)
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

// IntOf returns an integer constant.
func IntOf(v int64) *Const { return &Const{Kind: IntConst, Int: v} }

// StringOf returns a string constant.
func StringOf(s string) *Const { return &Const{Kind: StringConst, Str: s} }

// NullOf returns the null constant.
func NullOf() *Const { return &Const{Kind: NullConst} }

// ResOf returns a symbolic resource constant ("id/name" or "layout/name").
func ResOf(name string) *Const { return &Const{Kind: ResConst, Str: name} }

// FieldRef designates an instance field of the object held by Base
// ("base.f"). After Program.Link, Field points at the resolved declaration.
type FieldRef struct {
	Base *Local
	// Name is the source-level field name, kept for unlinked printing.
	Name string
	// Field is the resolved field; set by Program.Link.
	Field *Field
}

func (*FieldRef) valueNode() {}

func (f *FieldRef) String() string { return f.Base.Name + "." + f.fieldName() }

func (f *FieldRef) fieldName() string {
	if f.Field != nil {
		return f.Field.Name
	}
	return f.Name
}

// StaticFieldRef designates a static (class-level) field ("C.f").
type StaticFieldRef struct {
	Class string
	Name  string
	Field *Field // resolved by Program.Link
}

func (*StaticFieldRef) valueNode() {}

func (f *StaticFieldRef) String() string {
	if f.Field != nil {
		return f.Field.Class.Name + "." + f.Field.Name
	}
	return f.Class + "." + f.Name
}

// ArrayRef designates an element of the array held by Base ("base[i]").
type ArrayRef struct {
	Base  *Local
	Index Value // *Local or *Const
}

func (*ArrayRef) valueNode()       {}
func (a *ArrayRef) String() string { return fmt.Sprintf("%s[%s]", a.Base.Name, a.Index) }

// New is an allocation expression ("new C").
type New struct {
	Type Type
}

func (*New) valueNode()       {}
func (n *New) String() string { return "new " + n.Type.String() }

// NewArray is an array allocation ("newarray T").
type NewArray struct {
	Elem Type
	Len  Value // may be nil
}

func (*NewArray) valueNode() {}

func (n *NewArray) String() string {
	if n.Len == nil {
		return "newarray " + n.Elem.String()
	}
	return fmt.Sprintf("newarray %s[%s]", n.Elem, n.Len)
}

// Binop is a binary expression such as string concatenation or integer
// arithmetic. The analyses treat all operators identically: the result
// carries taint if either operand does ("must track primitives").
type Binop struct {
	Op   string
	L, R Value
}

func (*Binop) valueNode()       {}
func (b *Binop) String() string { return fmt.Sprintf("%s %s %s", b.L, b.Op, b.R) }

// Cast is a checked reference cast ("(C) x"). Taint flows through
// unchanged.
type Cast struct {
	To Type
	X  Value
}

func (*Cast) valueNode()       {}
func (c *Cast) String() string { return fmt.Sprintf("(%s) %s", c.To, c.X) }

// InvokeKind discriminates dispatch behaviour of invocations.
type InvokeKind int

const (
	// VirtualInvoke dispatches on the runtime type of the receiver.
	VirtualInvoke InvokeKind = iota
	// StaticInvoke targets a static method of a named class.
	StaticInvoke
	// SpecialInvoke targets an exact method (constructors); no dispatch.
	SpecialInvoke
)

func (k InvokeKind) String() string {
	switch k {
	case VirtualInvoke:
		return "virtual"
	case StaticInvoke:
		return "static"
	case SpecialInvoke:
		return "special"
	}
	return "?"
}

// MethodRef names an invocation target before resolution: the static
// receiver class (declared class for virtual calls, the named class for
// static and special calls), the method name, and the argument count.
// Overload resolution is by arity only.
type MethodRef struct {
	Class string
	Name  string
	NArgs int
}

// String renders the reference as "Class.Name/NArgs".
func (r MethodRef) String() string { return fmt.Sprintf("%s.%s/%d", r.Class, r.Name, r.NArgs) }

// InvokeExpr is a method invocation. It appears either as the right-hand
// side of an assignment (calls with a used result) or inside an InvokeStmt
// (calls whose result is discarded). Arguments are restricted to locals and
// constants by the three-address form.
type InvokeExpr struct {
	Kind InvokeKind
	Base *Local // receiver; nil for static invokes
	Ref  MethodRef
	Args []Value
}

func (*InvokeExpr) valueNode() {}

func (e *InvokeExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	recv := e.Ref.Class
	if e.Base != nil {
		recv = e.Base.Name
	}
	return fmt.Sprintf("%s.%s(%s)", recv, e.Ref.Name, strings.Join(args, ", "))
}

// IsSimple reports whether v is a local or a constant, the only values the
// three-address form permits as call arguments, array indices and operands.
func IsSimple(v Value) bool {
	switch v.(type) {
	case *Local, *Const:
		return true
	}
	return false
}

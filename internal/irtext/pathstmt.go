package irtext

import (
	"strings"

	"flowdroid/internal/ir"
)

// path is a dot-separated identifier chain awaiting interpretation: a
// local, a local.field access, a static Class.field access, or the target
// of a call.
type path struct {
	segs []string
	line int
}

// parsePath parses a path into the parser's segment buffer, so the path
// is valid only until the next parsePath; every caller is done with it by
// then (call arguments are operands, never paths).
func (p *parser) parsePath() (path, error) {
	line := p.cur.line
	seg, err := p.expectIdent()
	if err != nil {
		return path{}, err
	}
	segs := append(p.segs[:0], seg)
	for p.isPunct(".") {
		if err := p.advance(); err != nil {
			return path{}, err
		}
		seg, err := p.expectIdent()
		if err != nil {
			return path{}, err
		}
		segs = append(segs, seg)
	}
	p.segs = segs
	return path{segs: segs, line: line}, nil
}

// isLocal reports whether name is a declared or previously assigned local
// of m. It only disambiguates multi-segment paths (local.field versus
// Class.staticfield); single-segment operands always denote locals, which
// the parser creates on first mention. Whether a local is actually
// assigned before use is checked after parsing by the CFG-aware
// definite-assignment analyzer (internal/irlint, "defuse"), not here.
func isLocal(m *ir.Method, name string) bool { return m.LookupLocal(name) != nil }

// parsePathStmt parses a statement beginning with a path: an assignment
// (to a local, field, static field or array element) or a stand-alone call.
func (p *parser) parsePathStmt(m *ir.Method) ([]ir.Stmt, error) {
	pa, err := p.parsePath()
	if err != nil {
		return nil, err
	}

	// Stand-alone call: path "(" args ")".
	if p.isPunct("(") {
		call, err := p.finishCall(m, pa)
		if err != nil {
			return nil, err
		}
		return []ir.Stmt{&ir.InvokeStmt{Call: call}}, nil
	}

	// Array store: local "[" index "]" "=" operand.
	if p.isPunct("[") {
		if len(pa.segs) != 1 {
			return nil, p.errf("array base must be a local, found %s", strings.Join(pa.segs, "."))
		}
		base := m.Local(pa.segs[0])
		if err := p.advance(); err != nil {
			return nil, err
		}
		idx, err := p.operand(m)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		rhs, err := p.operand(m)
		if err != nil {
			return nil, err
		}
		return []ir.Stmt{&ir.AssignStmt{LHS: &ir.ArrayRef{Base: base, Index: idx}, RHS: rhs}}, nil
	}

	// Otherwise an assignment: lvalue "=" rvalue.
	lhs, err := p.lvalueOf(m, pa)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	return p.parseRvalue(m, lhs)
}

// lvalueOf interprets a path as an assignment target.
func (p *parser) lvalueOf(m *ir.Method, pa path) (ir.Value, error) {
	switch {
	case len(pa.segs) == 1:
		// Assignment to a local defines it.
		return m.Local(pa.segs[0]), nil
	case isLocal(m, pa.segs[0]):
		if len(pa.segs) != 2 {
			return nil, p.errf("chained field access %s is not three-address form; introduce a temporary",
				strings.Join(pa.segs, "."))
		}
		return &ir.FieldRef{Base: m.LookupLocal(pa.segs[0]), Name: pa.segs[1]}, nil
	default:
		cls := strings.Join(pa.segs[:len(pa.segs)-1], ".")
		return &ir.StaticFieldRef{Class: cls, Name: pa.segs[len(pa.segs)-1]}, nil
	}
}

// operand parses a simple value: a local or a literal.
func (p *parser) operand(m *ir.Method) (ir.Value, error) {
	switch p.cur.kind {
	case tokInt:
		v := ir.IntOf(p.cur.num)
		return v, p.advance()
	case tokString:
		v := ir.StringOf(p.cur.text)
		return v, p.advance()
	case tokRes:
		v := ir.ResOf(p.cur.text)
		return v, p.advance()
	case tokIdent:
		if p.cur.text == "null" {
			return ir.NullOf(), p.advance()
		}
		return m.Local(p.cur.text), p.advance()
	}
	return nil, p.errf("expected operand, found %s", p.cur)
}

// finishCall parses "(args)" after a call target path and builds the
// invocation expression.
func (p *parser) finishCall(m *ir.Method, pa path) (*ir.InvokeExpr, error) {
	if err := p.advance(); err != nil { // consume "("
		return nil, err
	}
	var args []ir.Value
	for !p.isPunct(")") {
		a, err := p.operand(m)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.advance(); err != nil { // consume ")"
		return nil, err
	}
	if len(pa.segs) < 2 {
		return nil, p.errf("call target %q needs a receiver local or class name", pa.segs[0])
	}
	name := pa.segs[len(pa.segs)-1]
	if len(pa.segs) == 2 && isLocal(m, pa.segs[0]) {
		base := m.LookupLocal(pa.segs[0])
		cls := ""
		if base.Type.IsRef() {
			cls = base.Type.Name
		}
		return &ir.InvokeExpr{
			Kind: ir.VirtualInvoke,
			Base: base,
			Ref:  ir.MethodRef{Class: cls, Name: name, NArgs: len(args)},
			Args: args,
		}, nil
	}
	cls := strings.Join(pa.segs[:len(pa.segs)-1], ".")
	return &ir.InvokeExpr{
		Kind: ir.StaticInvoke,
		Ref:  ir.MethodRef{Class: cls, Name: name, NArgs: len(args)},
		Args: args,
	}, nil
}

// parseRvalue parses the right-hand side of "lhs =" and returns the
// resulting statement(s); constructor sugar expands to two statements.
func (p *parser) parseRvalue(m *ir.Method, lhs ir.Value) ([]ir.Stmt, error) {
	switch {
	case p.isIdent("new"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		cls, err := p.qname()
		if err != nil {
			return nil, err
		}
		alloc := &ir.AssignStmt{LHS: lhs, RHS: &ir.New{Type: ir.Ref(cls)}}
		if !p.isPunct("(") {
			return []ir.Stmt{alloc}, nil
		}
		// Constructor sugar: "x = new C(a, b)" expands to the allocation
		// followed by a special-invoke of C.init.
		if err := p.advance(); err != nil {
			return nil, err
		}
		var args []ir.Value
		for !p.isPunct(")") {
			a, err := p.operand(m)
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		recv, ok := lhs.(*ir.Local)
		if !ok {
			return nil, p.errf("constructor result must be assigned to a local")
		}
		ctor := &ir.InvokeStmt{Call: &ir.InvokeExpr{
			Kind: ir.SpecialInvoke,
			Base: recv,
			Ref:  ir.MethodRef{Class: cls, Name: "init", NArgs: len(args)},
			Args: args,
		}}
		return []ir.Stmt{alloc, ctor}, nil

	case p.isIdent("newarray"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.typeName()
		if err != nil {
			return nil, err
		}
		return []ir.Stmt{&ir.AssignStmt{LHS: lhs, RHS: &ir.NewArray{Elem: t}}}, nil

	case p.isPunct("("): // cast: "(C) x"
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.typeName()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		x, err := p.operand(m)
		if err != nil {
			return nil, err
		}
		return []ir.Stmt{&ir.AssignStmt{LHS: lhs, RHS: &ir.Cast{To: t, X: x}}}, nil

	case p.cur.kind == tokInt || p.cur.kind == tokString || p.cur.kind == tokRes ||
		p.isIdent("null"):
		v, err := p.operand(m)
		if err != nil {
			return nil, err
		}
		return p.maybeBinop(m, lhs, v)
	}

	// A path: local copy, field load, static load, array load, binop or
	// call with result.
	pa, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if p.isPunct("(") {
		call, err := p.finishCall(m, pa)
		if err != nil {
			return nil, err
		}
		return []ir.Stmt{&ir.AssignStmt{LHS: lhs, RHS: call}}, nil
	}
	if p.isPunct("[") {
		if len(pa.segs) != 1 {
			return nil, p.errf("array base must be a local")
		}
		base := m.Local(pa.segs[0])
		if err := p.advance(); err != nil {
			return nil, err
		}
		idx, err := p.operand(m)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		return []ir.Stmt{&ir.AssignStmt{LHS: lhs, RHS: &ir.ArrayRef{Base: base, Index: idx}}}, nil
	}
	v, err := p.pathValue(m, pa)
	if err != nil {
		return nil, err
	}
	return p.maybeBinop(m, lhs, v)
}

// pathValue interprets a path in value position.
func (p *parser) pathValue(m *ir.Method, pa path) (ir.Value, error) {
	switch {
	case len(pa.segs) == 1:
		return m.Local(pa.segs[0]), nil
	case isLocal(m, pa.segs[0]):
		if len(pa.segs) != 2 {
			return nil, p.errf("chained field access %s is not three-address form; introduce a temporary",
				strings.Join(pa.segs, "."))
		}
		return &ir.FieldRef{Base: m.LookupLocal(pa.segs[0]), Name: pa.segs[1]}, nil
	default:
		cls := strings.Join(pa.segs[:len(pa.segs)-1], ".")
		return &ir.StaticFieldRef{Class: cls, Name: pa.segs[len(pa.segs)-1]}, nil
	}
}

// maybeBinop checks for a trailing binary operator after the first operand
// and builds either a plain assignment or a binop assignment.
func (p *parser) maybeBinop(m *ir.Method, lhs, first ir.Value) ([]ir.Stmt, error) {
	if p.cur.kind != tokOp {
		return []ir.Stmt{&ir.AssignStmt{LHS: lhs, RHS: first}}, nil
	}
	if !ir.IsSimple(first) {
		return nil, p.errf("binary operands must be locals or constants; introduce a temporary")
	}
	op := p.cur.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	second, err := p.operand(m)
	if err != nil {
		return nil, err
	}
	return []ir.Stmt{&ir.AssignStmt{LHS: lhs, RHS: &ir.Binop{Op: op, L: first, R: second}}}, nil
}

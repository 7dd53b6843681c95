package irtext

import (
	"fmt"

	"flowdroid/internal/ir"
)

// ParseInto parses src (one .ir file) and adds its classes to prog. The
// caller is responsible for calling prog.Link() once all files are in.
func ParseInto(prog *ir.Program, src, filename string) error {
	p := &parser{lex: newLexer(src, filename), prog: prog}
	if err := p.advance(); err != nil {
		return err
	}
	if err := p.advance(); err != nil {
		return err
	}
	return p.parseFile()
}

// ParseProgram parses a self-contained program from a single source text
// and links it.
func ParseProgram(src, filename string) (*ir.Program, error) {
	prog := ir.NewProgram()
	if err := ParseInto(prog, src, filename); err != nil {
		return nil, err
	}
	if err := prog.Link(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse parses and links a program, panicking on error. It is intended
// for benchmark suites whose sources are compile-time constants.
func MustParse(src, filename string) *ir.Program {
	prog, err := ParseProgram(src, filename)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	lex  *lexer
	prog *ir.Program
	cur  token
	next token
	// segs is parsePath's reused segment buffer.
	segs []string
}

func (p *parser) advance() error {
	p.cur = p.next
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.next = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", p.lex.file, p.cur.line, fmt.Sprintf(format, args...))
}

func (p *parser) isPunct(s string) bool { return p.cur.kind == tokPunct && p.cur.text == s }

func (p *parser) isIdent(s string) bool { return p.cur.kind == tokIdent && p.cur.text == s }

func (p *parser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return p.errf("expected %q, found %s", s, p.cur)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, error) {
	if p.cur.kind != tokIdent {
		return "", p.errf("expected identifier, found %s", p.cur)
	}
	name := p.cur.text
	return name, p.advance()
}

// qname parses a dot-separated qualified name (e.g. android.app.Activity).
func (p *parser) qname() (string, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	for p.isPunct(".") {
		if err := p.advance(); err != nil {
			return "", err
		}
		part, err := p.expectIdent()
		if err != nil {
			return "", err
		}
		name += "." + part
	}
	return name, nil
}

// typeName parses a type: a qualified name or primitive, optionally
// suffixed with "[]".
func (p *parser) typeName() (ir.Type, error) {
	name, err := p.qname()
	if err != nil {
		return ir.Unknown, err
	}
	t := ir.TypeFromName(name)
	for p.isPunct("[") {
		if err := p.advance(); err != nil {
			return ir.Unknown, err
		}
		if err := p.expectPunct("]"); err != nil {
			return ir.Unknown, err
		}
		t = ir.ArrayOf(t)
	}
	return t, nil
}

func (p *parser) parseFile() error {
	for p.cur.kind != tokEOF {
		switch {
		case p.isIdent("class"), p.isIdent("interface"):
			if err := p.parseClass(); err != nil {
				return err
			}
		default:
			return p.errf("expected class or interface declaration, found %s", p.cur)
		}
	}
	return nil
}

func (p *parser) parseClass() error {
	isInterface := p.isIdent("interface")
	declLine := p.cur.line
	if err := p.advance(); err != nil {
		return err
	}
	name, err := p.qname()
	if err != nil {
		return err
	}
	super := ""
	if p.isIdent("extends") {
		if err := p.advance(); err != nil {
			return err
		}
		if super, err = p.qname(); err != nil {
			return err
		}
	}
	if super == "" && !isInterface && name != "java.lang.Object" {
		super = "java.lang.Object"
	}
	cls := ir.NewClass(name, super)
	cls.Interface = isInterface
	cls.File, cls.Line = p.lex.file, declLine
	if p.isIdent("implements") {
		for {
			if err := p.advance(); err != nil {
				return err
			}
			in, err := p.qname()
			if err != nil {
				return err
			}
			cls.Interfaces = append(cls.Interfaces, in)
			if !p.isPunct(",") {
				break
			}
		}
	}
	if err := p.prog.AddClass(cls); err != nil {
		return p.errf("%v", err)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.isPunct("}") {
		static := false
		if p.isIdent("static") {
			static = true
			if err := p.advance(); err != nil {
				return err
			}
		}
		switch {
		case p.isIdent("field"):
			if err := p.parseField(cls, static); err != nil {
				return err
			}
		case p.isIdent("method"):
			if err := p.parseMethod(cls, static); err != nil {
				return err
			}
		default:
			return p.errf("expected field or method declaration, found %s", p.cur)
		}
	}
	return p.advance() // consume "}"
}

func (p *parser) parseField(cls *ir.Class, static bool) error {
	if err := p.advance(); err != nil { // consume "field"
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	t, err := p.typeName()
	if err != nil {
		return err
	}
	if _, err := cls.AddField(name, t, static); err != nil {
		return p.errf("%v", err)
	}
	return nil
}

func (p *parser) parseMethod(cls *ir.Class, static bool) error {
	if err := p.advance(); err != nil { // consume "method"
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	m := ir.NewMethod(name, ir.Void, static)
	if m.This != nil {
		m.This.Type = ir.Ref(cls.Name)
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	for !p.isPunct(")") {
		pname, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		t, err := p.typeName()
		if err != nil {
			return err
		}
		if _, err := m.AddParam(pname, t); err != nil {
			return p.errf("%v", err)
		}
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return err
			}
		}
	}
	if err := p.advance(); err != nil { // consume ")"
		return err
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	ret, err := p.typeName()
	if err != nil {
		return err
	}
	m.Return = ret
	if err := cls.AddMethod(m); err != nil {
		return p.errf("%v", err)
	}
	if p.isPunct(";") { // abstract / stub
		return p.advance()
	}
	body, err := p.parseBody(m)
	if err != nil {
		return err
	}
	m.SetBody(body)
	return nil
}

// parseBody parses "{ stmt* }" into a statement list.
func (p *parser) parseBody(m *ir.Method) ([]ir.Stmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var body []ir.Stmt
	pendingLabel := ""
	emit := func(s ir.Stmt, line int) {
		if pendingLabel != "" {
			setLabel(s, pendingLabel)
			pendingLabel = ""
		}
		setLine(s, line)
		body = append(body, s)
	}
	for !p.isPunct("}") {
		line := p.cur.line
		// Label: IDENT ":" (not followed by a type, i.e. not a local decl).
		if p.cur.kind == tokIdent && p.next.kind == tokPunct && p.next.text == ":" &&
			!p.isIdent("local") {
			if pendingLabel != "" {
				return nil, p.errf("two consecutive labels (%s, %s)", pendingLabel, p.cur.text)
			}
			pendingLabel = p.cur.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		stmts, err := p.parseStmt(m)
		if err != nil {
			return nil, err
		}
		for _, s := range stmts {
			emit(s, line)
		}
	}
	if pendingLabel != "" {
		s := &ir.NopStmt{}
		setLabel(s, pendingLabel)
		body = append(body, s)
	}
	return body, p.advance() // consume "}"
}

// setLabel and setLine position a freshly parsed statement. Statement
// implementations that do not embed ir.StmtBase (and so lack the setter)
// simply go unpositioned — a missing setter must never panic the parser.
func setLabel(s ir.Stmt, l string) {
	if x, ok := s.(interface{ SetLabel(string) }); ok {
		x.SetLabel(l)
	}
}

func setLine(s ir.Stmt, n int) {
	if x, ok := s.(interface{ SetLine(int) }); ok {
		x.SetLine(n)
	}
}

// parseStmt parses one source statement; constructor sugar may expand to
// two IR statements.
func (p *parser) parseStmt(m *ir.Method) ([]ir.Stmt, error) {
	switch {
	case p.isIdent("local"):
		// "local x: T" declares a typed local; emits no statement.
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		t, err := p.typeName()
		if err != nil {
			return nil, err
		}
		l := m.Local(name)
		l.Type = t
		l.Declared = true
		return nil, nil

	case p.isIdent("if"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind != tokOp || p.cur.text != "*" {
			return nil, p.errf("conditions are opaque: expected '*' after 'if', found %s", p.cur)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isIdent("goto") {
			return nil, p.errf("expected 'goto' in if statement, found %s", p.cur)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		target, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return []ir.Stmt{&ir.IfStmt{Target: target}}, nil

	case p.isIdent("goto"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		target, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return []ir.Stmt{&ir.GotoStmt{Target: target}}, nil

	case p.isIdent("return"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		// A value follows unless the next token starts a new statement.
		if p.isPunct("}") || p.startsStmt() {
			return []ir.Stmt{&ir.ReturnStmt{}}, nil
		}
		v, err := p.operand(m)
		if err != nil {
			return nil, err
		}
		return []ir.Stmt{&ir.ReturnStmt{Value: v}}, nil

	case p.isIdent("nop"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return []ir.Stmt{&ir.NopStmt{}}, nil
	}

	// Everything else begins with a path: an assignment or a call.
	return p.parsePathStmt(m)
}

// startsStmt reports whether the current token begins a new statement
// keyword, which disambiguates "return" from "return x".
func (p *parser) startsStmt() bool {
	if p.cur.kind != tokIdent {
		return false
	}
	switch p.cur.text {
	case "if", "goto", "return", "nop", "local":
		return true
	}
	// A label "X:" starts a statement, and so does an assignment or call
	// beginning with this identifier.
	if p.next.kind == tokPunct {
		switch p.next.text {
		case ":", "=", ".", "(", "[":
			return true
		}
	}
	return false
}

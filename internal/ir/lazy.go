package ir

import (
	"sync"
	"sync/atomic"
)

// A method body can be declared before it is parsed. The app loader
// declares every class, field and method signature at load time and keeps
// each body as a span of its source text, the way Soot builds a body only
// when an analysis retrieves it. The first call to Body, Locals,
// LookupLocal, EntryStmt, ExitStmts or Parse parses the span, resolves
// its resource constants and links the method; Abstract answers from the
// load-time scan and never parses.

// BodySource parses the bodies a front end declared but did not parse.
type BodySource interface {
	// ParseBody parses the body of m found at span. It declares m's
	// locals through Local and HasLocal, never through the accessors
	// that parse a pending body.
	ParseBody(m *Method, span Span) ([]Stmt, error)
	// MayMention reports whether the body at span may mention the
	// identifier name as a callee or field name: false only when no
	// statement parsed from it can. It must not allocate.
	MayMention(span Span, name string) bool
}

// Span locates a method body in its source text: the bytes [Start, End)
// from its opening to its closing brace, and the line Start is on.
type Span struct {
	Start, End, Line int
}

// BodyFacts is what a front end's load-time scan learned about a body
// without parsing it.
type BodyFacts struct {
	// Empty reports that the body holds no statement: parsing it yields
	// an empty statement list.
	Empty bool
	// Reflective reports that the body mentions a reflective API name
	// (forName, getMethod, getDeclaredMethod, newInstance, invoke,
	// loadClass).
	Reflective bool
	// Resources lists the resource names the body mentions ("id/x",
	// "layout/main"), in source order, repeats included.
	Resources []string
}

// pendingBody is a body held as source. once guards its parse and link,
// so a method shared by concurrent analyses is parsed exactly once.
type pendingBody struct {
	once  sync.Once
	prog  *Program
	src   BodySource
	span  Span
	facts BodyFacts
	state atomic.Uint32 // unparsed, then parsedOK or parsedErr
	err   error
}

const (
	unparsed = iota
	parsedOK
	parsedErr
)

// SetPendingBody gives m a body to be parsed from src on first use and
// linked against prog. The facts must describe the body exactly: Abstract
// reports facts.Empty without parsing. prog counts the body in
// BodyCounts and ParseAll.
func (m *Method) SetPendingBody(prog *Program, src BodySource, span Span, facts BodyFacts) {
	m.pending = &pendingBody{prog: prog, src: src, span: span, facts: facts}
	m.body = nil
	m.finalized = false
	prog.pending = append(prog.pending, m)
}

// Facts returns the load-time scan's facts about m's body, and false if
// the body was built or parsed eagerly (or m has none).
func (m *Method) Facts() (BodyFacts, bool) {
	if m.pending == nil {
		return BodyFacts{}, false
	}
	return m.pending.facts, true
}

// MayMention reports, without parsing, whether m's body may mention the
// identifier name as a callee (a call's Ref.Name) or as a written or read
// field's name: false only when the body's source shows it cannot. A
// body built or parsed eagerly answers true. It does not allocate, so a
// pass can ask it of every body to pick the few it must parse.
func (m *Method) MayMention(name string) bool {
	pb := m.pending
	return pb == nil || pb.src.MayMention(pb.span, name)
}

// Parse parses and links a pending body if that has not happened yet and
// returns the error doing so produced, positioned in the source file.
// For a body built or parsed eagerly it returns nil.
func (m *Method) Parse() error {
	pb := m.pending
	if pb == nil {
		return nil
	}
	pb.once.Do(func() {
		pb.err = pb.prog.parsePending(m, pb)
		if pb.err != nil {
			pb.state.Store(parsedErr)
		} else {
			pb.state.Store(parsedOK)
		}
	})
	return pb.err
}

// force is Parse for the accessors, which have no error result: a body
// that does not parse panics with the parse error. The pipeline recovers
// the panic into a failed run that names the pass and the position.
func (m *Method) force() {
	if pb := m.pending; pb != nil && pb.state.Load() != parsedOK {
		if err := m.Parse(); err != nil {
			panic(err)
		}
	}
}

// parsePending parses pb's source into m's body, hands the statements to
// the program's parse hook (resource resolution) and links the method
// against the load-time class set.
func (p *Program) parsePending(m *Method, pb *pendingBody) error {
	body, err := pb.src.ParseBody(m, pb.span)
	if err != nil {
		return err
	}
	if p.onParse != nil {
		if err := p.onParse(m, body); err != nil {
			return err
		}
	}
	m.body = body
	return p.linkMethod(m)
}

// OnParse registers fn to run on every body parsed on demand from now
// on, before the body is linked. The app loader resolves the body's
// resource constants this way.
func (p *Program) OnParse(fn func(m *Method, body []Stmt) error) { p.onParse = fn }

// PendingMethods returns the methods declared with a body to parse on
// demand, parsed since or not, in declaration order. Callers must not
// modify the slice.
func (p *Program) PendingMethods() []*Method { return p.pending }

// BodyCounts returns how many method bodies were declared to be parsed on
// demand, and how many of them have been parsed so far.
func (p *Program) BodyCounts() (bodies, parsed int) {
	for _, m := range p.pending {
		if m.pending != nil && m.pending.state.Load() != unparsed {
			parsed++
		}
	}
	return len(p.pending), parsed
}

// ParseAll parses every pending body in declaration order and returns
// the first error.
func (p *Program) ParseAll() error {
	var first error
	for _, m := range p.pending {
		if err := m.Parse(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

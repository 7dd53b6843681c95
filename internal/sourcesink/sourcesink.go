// Package sourcesink manages taint sources and sinks: the stand-in for
// FlowDroid's SuSi-derived source/sink configuration. Sources and sinks
// are declared in a simple textual format; in addition, the manager
// derives layout sources (password input fields read through
// findViewById/getText) from the app's layout XML models, which cannot be
// recognized from code alone.
package sourcesink

import (
	"bufio"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"flowdroid/internal/apk"
	"flowdroid/internal/ir"
)

// Return designates the return value in a source spec.
const Return = -1

// Source declares a method whose return value (Param == Return) or whose
// parameter (Param >= 0, for framework callbacks such as
// onLocationChanged) carries sensitive data.
type Source struct {
	Class string
	Name  string
	NArgs int
	Param int
	// Label describes the data, e.g. "device-id" or "password-field".
	Label string
}

// String renders the source in the configuration syntax.
func (s Source) String() string {
	what := "return"
	if s.Param >= 0 {
		what = fmt.Sprintf("param%d", s.Param)
	}
	return fmt.Sprintf("source <%s: %s/%d> -> %s", s.Class, s.Name, s.NArgs, what)
}

// Sink declares a method whose listed arguments (nil = all arguments)
// leak data out of the app.
type Sink struct {
	Class string
	Name  string
	NArgs int
	Args  []int // nil means every argument
	Label string
}

// String renders the sink in the configuration syntax.
func (s Sink) String() string {
	what := "all"
	if s.Args != nil {
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			parts[i] = fmt.Sprintf("arg%d", a)
		}
		what = strings.Join(parts, ", ")
	}
	return fmt.Sprintf("sink <%s: %s/%d> -> %s", s.Class, s.Name, s.NArgs, what)
}

// Manager answers "is this call a source/sink?" queries for the taint
// analysis. It belongs to one single-threaded analysis: queries memoize
// without locks, and configuration — AttachApp, AddSource, AddSink —
// must happen before analysis starts.
type Manager struct {
	prog    ir.Hierarchy
	sources []Source
	sinks   []Sink

	// enabledSinks, when non-nil, restricts sink answers to the listed
	// rule indices (RestrictSinks); nil means every rule answers. A
	// statement is still resolved against the full table first, so a
	// restricted manager behaves exactly like the unrestricted one with
	// its answers filtered to the enabled rules.
	enabledSinks map[int]bool

	// The widget maps below are populated lazily: the per-method
	// password-widget dataflow runs on a method's first query.
	//
	// passwordWidget marks locals that hold password-field widgets
	// (per-method dataflow from findViewById with a password control id).
	passwordWidget map[*ir.Local]bool
	analyzed       map[*ir.Method]bool
	pwdIDs         map[int64]bool
}

// NewManager creates a manager over a program model with the given
// rules. Pass a scene.Scene to answer the subtype checks of rule
// matching from its precomputed sets.
func NewManager(prog ir.Hierarchy, sources []Source, sinks []Sink) *Manager {
	return &Manager{
		prog:           prog,
		sources:        sources,
		sinks:          sinks,
		passwordWidget: make(map[*ir.Local]bool),
		analyzed:       make(map[*ir.Method]bool),
		pwdIDs:         make(map[int64]bool),
	}
}

// defaultRules is DefaultRules parsed once per process. Its rule slices
// are shared by every manager Default returns, which is safe because a
// manager only reads them and appends to clipped copies.
var defaultRules = sync.OnceValue(func() *Manager {
	m, err := Parse(nil, DefaultRules)
	if err != nil {
		panic("sourcesink: built-in rules do not parse: " + err.Error())
	}
	return m
})

// Default creates a manager with the built-in Android source/sink rules.
func Default(prog ir.Hierarchy) *Manager {
	r := defaultRules()
	return NewManager(prog, slices.Clip(r.sources), slices.Clip(r.sinks))
}

// AttachApp registers the app's layout model so that password input
// fields become sources. Must be called before analysis for layout
// sources to be recognized.
func (m *Manager) AttachApp(app *apk.App) {
	for _, l := range app.Layouts {
		for _, c := range l.PasswordControls() {
			if id, ok := app.Res.Lookup("id/" + c.ID); ok {
				m.pwdIDs[id] = true
			}
		}
	}
}

// Sources returns the configured sources.
func (m *Manager) Sources() []Source { return m.sources }

// Sinks returns the configured sinks.
func (m *Manager) Sinks() []Sink { return m.sinks }

// AddSource appends a source rule.
func (m *Manager) AddSource(s Source) { m.sources = append(m.sources, s) }

// AddSink appends a sink rule.
func (m *Manager) AddSink(s Sink) { m.sinks = append(m.sinks, s) }

// receiverClass determines the best static class name for matching an
// invocation against the rule tables.
func receiverClass(e *ir.InvokeExpr) string {
	if e.Kind == ir.VirtualInvoke && e.Base != nil && e.Base.Type.IsRef() {
		return e.Base.Type.Name
	}
	return e.Ref.Class
}

// classMatches reports whether a call on cls can match a rule declared on
// ruleCls: equal names, subtype (call through a subclass), or supertype
// (rule on the implementing class, call through the interface).
func (m *Manager) classMatches(cls, ruleCls string) bool {
	if cls == ruleCls {
		return true
	}
	if cls == "" || ruleCls == "" {
		return false
	}
	return m.prog.SubtypeOf(cls, ruleCls) || m.prog.SubtypeOf(ruleCls, cls)
}

// SourceAtCall reports whether the call statement s invokes a source
// whose return value is tainted, returning its label.
func (m *Manager) SourceAtCall(s ir.Stmt) (Source, bool) {
	call := ir.CallOf(s)
	if call == nil {
		return Source{}, false
	}
	cls := receiverClass(call)
	for _, src := range m.sources {
		if src.Param != Return {
			continue
		}
		if src.Name == call.Ref.Name && src.NArgs == call.Ref.NArgs && m.classMatches(cls, src.Class) {
			return src, true
		}
	}
	// Layout source: getText() on a password widget.
	if call.Ref.Name == "getText" && call.Ref.NArgs == 0 && call.Base != nil {
		m.ensureWidgets(s.Method())
		if m.passwordWidget[call.Base] {
			return Source{
				Class: cls, Name: "getText", NArgs: 0, Param: Return,
				Label: "password-field",
			}, true
		}
	}
	return Source{}, false
}

// ParamSources returns the tainted parameter indices when method is a
// framework callback whose parameters carry sensitive data (e.g.
// LocationListener.onLocationChanged).
func (m *Manager) ParamSources(method *ir.Method) []Source {
	var out []Source
	for _, src := range m.sources {
		if src.Param < 0 || src.Param >= len(method.Params) {
			continue
		}
		if src.Name != method.Name || src.NArgs != len(method.Params) {
			continue
		}
		if m.classMatches(method.Class.Name, src.Class) {
			out = append(out, src)
		}
	}
	return out
}

// SinkAtCall reports whether s invokes a sink, returning the sink rule
// and the indices of the leaking arguments.
func (m *Manager) SinkAtCall(s ir.Stmt) (Sink, []int, bool) {
	call := ir.CallOf(s)
	if call == nil {
		return Sink{}, nil, false
	}
	cls := receiverClass(call)
	for i, snk := range m.sinks {
		if snk.Name == call.Ref.Name && snk.NArgs == call.Ref.NArgs && m.classMatches(cls, snk.Class) {
			if m.enabledSinks != nil && !m.enabledSinks[i] {
				// The first matching rule is not part of the query: the
				// statement is not a sink under this restriction (the
				// whole-program run would attribute it to this rule, and
				// filtering that report to the query drops it).
				return Sink{}, nil, false
			}
			args := snk.Args
			if args == nil {
				args = make([]int, len(call.Args))
				for i := range args {
					args[i] = i
				}
			}
			return snk, args, true
		}
	}
	return Sink{}, nil, false
}

// ensureWidgets runs the per-method password-widget dataflow once: a
// local is a password widget if it is assigned from findViewById with a
// password control id, possibly through copies and casts.
func (m *Manager) ensureWidgets(method *ir.Method) {
	if method == nil || m.analyzed[method] || len(m.pwdIDs) == 0 {
		return
	}
	m.analyzed[method] = true
	for changed := true; changed; {
		changed = false
		for _, s := range method.Body() {
			a, ok := s.(*ir.AssignStmt)
			if !ok {
				continue
			}
			lhs, ok := a.LHS.(*ir.Local)
			if !ok || m.passwordWidget[lhs] {
				continue
			}
			mark := false
			switch rhs := a.RHS.(type) {
			case *ir.InvokeExpr:
				if rhs.Ref.Name == "findViewById" && len(rhs.Args) == 1 {
					if id, ok := apk.ConstID(rhs.Args[0]); ok && m.pwdIDs[id] {
						mark = true
					}
				}
			case *ir.Local:
				mark = m.passwordWidget[rhs]
			case *ir.Cast:
				if x, ok := rhs.X.(*ir.Local); ok {
					mark = m.passwordWidget[x]
				}
			}
			if mark {
				m.passwordWidget[lhs] = true
				changed = true
			}
		}
	}
}

// Parse reads source/sink rules in the textual configuration format:
//
//	source <android.telephony.TelephonyManager: getDeviceId/0> -> return
//	source <android.location.LocationListener: onLocationChanged/1> -> param0
//	sink   <android.telephony.SmsManager: sendTextMessage/5> -> arg0, arg2
//	sink   <android.util.Log: i/2> -> all
//
// Lines starting with # and blank lines are ignored. An optional trailing
// "label NAME" names the rule.
func Parse(prog ir.Hierarchy, text string) (*Manager, error) {
	m := NewManager(prog, nil, nil)
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		kind, rest, ok := strings.Cut(line, " ")
		if !ok || (kind != "source" && kind != "sink") {
			return nil, fmt.Errorf("sourcesink: line %d: expected 'source' or 'sink'", lineNo)
		}
		cls, name, nargs, what, label, err := parseRule(rest)
		if err != nil {
			return nil, fmt.Errorf("sourcesink: line %d: %v", lineNo, err)
		}
		if kind == "source" {
			param := Return
			if strings.HasPrefix(what, "param") {
				param, err = strconv.Atoi(strings.TrimPrefix(what, "param"))
				if err != nil {
					return nil, fmt.Errorf("sourcesink: line %d: bad param index %q", lineNo, what)
				}
			} else if what != "return" {
				return nil, fmt.Errorf("sourcesink: line %d: source target must be 'return' or 'paramN'", lineNo)
			}
			m.sources = append(m.sources, Source{Class: cls, Name: name, NArgs: nargs, Param: param, Label: label})
			continue
		}
		var args []int
		if what != "all" {
			for _, part := range strings.Split(what, ",") {
				part = strings.TrimSpace(part)
				idx, err := strconv.Atoi(strings.TrimPrefix(part, "arg"))
				if err != nil || !strings.HasPrefix(part, "arg") {
					return nil, fmt.Errorf("sourcesink: line %d: bad sink argument %q", lineNo, part)
				}
				args = append(args, idx)
			}
			sort.Ints(args)
		}
		m.sinks = append(m.sinks, Sink{Class: cls, Name: name, NArgs: nargs, Args: args, Label: label})
	}
	return m, sc.Err()
}

// parseRule parses "<Class: name/nargs> -> what [label NAME]".
func parseRule(s string) (cls, name string, nargs int, what, label string, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "<") {
		return "", "", 0, "", "", fmt.Errorf("expected '<Class: method/arity>', got %q", s)
	}
	end := strings.Index(s, ">")
	if end < 0 {
		return "", "", 0, "", "", fmt.Errorf("unterminated '<...>' in %q", s)
	}
	sig := s[1:end]
	rest := strings.TrimSpace(s[end+1:])
	clsPart, methodPart, ok := strings.Cut(sig, ":")
	if !ok {
		return "", "", 0, "", "", fmt.Errorf("missing ':' in signature %q", sig)
	}
	cls = strings.TrimSpace(clsPart)
	namePart, arityPart, ok := strings.Cut(strings.TrimSpace(methodPart), "/")
	if !ok {
		return "", "", 0, "", "", fmt.Errorf("missing '/arity' in signature %q", sig)
	}
	name = strings.TrimSpace(namePart)
	nargs, err = strconv.Atoi(strings.TrimSpace(arityPart))
	if err != nil {
		return "", "", 0, "", "", fmt.Errorf("bad arity in signature %q", sig)
	}
	if !strings.HasPrefix(rest, "->") {
		return "", "", 0, "", "", fmt.Errorf("missing '->' in rule")
	}
	rest = strings.TrimSpace(strings.TrimPrefix(rest, "->"))
	if i := strings.Index(rest, " label "); i >= 0 {
		label = strings.TrimSpace(rest[i+len(" label "):])
		rest = strings.TrimSpace(rest[:i])
	}
	what = rest
	return cls, name, nargs, what, label, nil
}

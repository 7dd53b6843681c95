package taint

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"flowdroid/internal/ir"
)

// Wrapper slot designators in shortcut rules.
const (
	// SlotBase designates the receiver object.
	SlotBase = -1
	// SlotReturn designates the call's result.
	SlotReturn = -2
)

// WrapperRule is one taint shortcut for a library method: if the source
// slot is tainted before the call, the destination slots become (wholly)
// tainted after it. This is the textual "shortcut rules" interface of the
// paper (Section 5, "Defining shortcuts"), and mirrors FlowDroid's
// EasyTaintWrapper granularity: destination objects are tainted as a
// whole, e.g. adding a tainted element to a collection taints the entire
// collection.
type WrapperRule struct {
	Class string
	Name  string
	NArgs int
	From  int // SlotBase, SlotReturn or an argument index
	To    []int
}

// Wrapper holds the shortcut rule table, indexed by method name and
// arity.
type Wrapper struct {
	rules map[string][]WrapperRule
}

func ruleKey(name string, nargs int) string { return name + "/" + strconv.Itoa(nargs) }

// NewWrapper creates an empty wrapper.
func NewWrapper() *Wrapper {
	return &Wrapper{rules: make(map[string][]WrapperRule)}
}

// DefaultWrapper parses the built-in shortcut rules for collections,
// strings, string builders, intents and bundles.
func DefaultWrapper() *Wrapper {
	w, err := ParseWrapper(DefaultWrapperRules)
	if err != nil {
		panic("taint: built-in wrapper rules do not parse: " + err.Error())
	}
	return w
}

// Add registers a rule.
func (w *Wrapper) Add(r WrapperRule) {
	k := ruleKey(r.Name, r.NArgs)
	w.rules[k] = append(w.rules[k], r)
}

// RulesFor returns the shortcut rules applicable to an invocation, or nil
// if the method is not modeled (callers then fall back to the native-call
// default). Class matching is by subtype in either direction, so a rule on
// java.util.List applies to calls through ArrayList and vice versa. When
// several matched rules disagree on the class, the most specific class
// wins (see mostSpecific), and the result is in a canonical order
// independent of Add registration order.
func (w *Wrapper) RulesFor(prog ir.Hierarchy, call *ir.InvokeExpr) []WrapperRule {
	candidates := w.rules[ruleKey(call.Ref.Name, call.Ref.NArgs)]
	if len(candidates) == 0 {
		return nil
	}
	// Refine the receiver class from the base local's declared type
	// whenever one exists. The dispatch kind is irrelevant for rule
	// lookup: special (and interface-style) invokes through a typed base
	// would otherwise silently miss rules keyed on the concrete class and
	// fall back to the declared ref class.
	cls := call.Ref.Class
	if call.Base != nil && call.Base.Type.IsRef() {
		cls = call.Base.Type.Name
	}
	var out []WrapperRule
	for _, r := range candidates {
		if cls == r.Class || cls == "" ||
			prog.SubtypeOf(cls, r.Class) || prog.SubtypeOf(r.Class, cls) {
			out = append(out, r)
		}
	}
	return mostSpecific(prog, cls, out)
}

// mostSpecific resolves class conflicts among matched rules: a rule whose
// class exactly matches the receiver wins outright, and otherwise any rule
// declared on a strict supertype of another matched rule's class is
// shadowed by the more specific one (a java.lang.Object fallback must not
// fire alongside a java.lang.StringBuilder rule for the same method). The
// survivors are sorted into a canonical order so the selection — and the
// order of the facts libraryFlow generates from it — is deterministic
// regardless of Add insertion order.
func mostSpecific(prog ir.Hierarchy, cls string, matched []WrapperRule) []WrapperRule {
	if len(matched) > 1 {
		exact := matched[:0:0]
		for _, r := range matched {
			if r.Class == cls {
				exact = append(exact, r)
			}
		}
		if len(exact) > 0 {
			matched = exact
		} else {
			keep := matched[:0:0]
			for _, r := range matched {
				shadowed := false
				for _, o := range matched {
					if o.Class != r.Class && prog.SubtypeOf(o.Class, r.Class) {
						shadowed = true
						break
					}
				}
				if !shadowed {
					keep = append(keep, r)
				}
			}
			matched = keep
		}
	}
	sort.SliceStable(matched, func(i, j int) bool {
		a, b := matched[i], matched[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return fmt.Sprint(a.To) < fmt.Sprint(b.To)
	})
	return matched
}

// Has reports whether any rule exists for the invocation.
func (w *Wrapper) Has(prog ir.Hierarchy, call *ir.InvokeExpr) bool {
	return len(w.RulesFor(prog, call)) > 0
}

// ParseWrapper reads shortcut rules in the textual format:
//
//	wrap <java.lang.StringBuilder: append/1> arg0 -> base, return
//	wrap <java.util.List: get/1> base -> return
//	exclude <java.lang.String: isEmpty/0>
//
// "exclude" declares a method taint-neutral: it gets an empty rule set,
// which suppresses the native-call default without adding flows.
func ParseWrapper(text string) (*Wrapper, error) {
	w := NewWrapper()
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		kind, rest, _ := strings.Cut(line, " ")
		switch kind {
		case "wrap":
			r, err := parseWrapRule(rest)
			if err != nil {
				return nil, fmt.Errorf("taint: wrapper line %d: %v", lineNo, err)
			}
			w.Add(r)
		case "exclude":
			cls, name, nargs, err := parseSig(rest)
			if err != nil {
				return nil, fmt.Errorf("taint: wrapper line %d: %v", lineNo, err)
			}
			// An empty destination list: matched but flow-free.
			w.Add(WrapperRule{Class: cls, Name: name, NArgs: nargs, From: SlotBase, To: nil})
		default:
			return nil, fmt.Errorf("taint: wrapper line %d: expected 'wrap' or 'exclude'", lineNo)
		}
	}
	return w, sc.Err()
}

func parseSig(s string) (cls, name string, nargs int, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "<") || !strings.Contains(s, ">") {
		return "", "", 0, fmt.Errorf("expected '<Class: method/arity>'")
	}
	sig := s[1:strings.Index(s, ">")]
	clsPart, methodPart, ok := strings.Cut(sig, ":")
	if !ok {
		return "", "", 0, fmt.Errorf("missing ':' in %q", sig)
	}
	namePart, arityPart, ok := strings.Cut(strings.TrimSpace(methodPart), "/")
	if !ok {
		return "", "", 0, fmt.Errorf("missing arity in %q", sig)
	}
	n, err := strconv.Atoi(strings.TrimSpace(arityPart))
	if err != nil {
		return "", "", 0, fmt.Errorf("bad arity in %q", sig)
	}
	return strings.TrimSpace(clsPart), strings.TrimSpace(namePart), n, nil
}

func parseWrapRule(s string) (WrapperRule, error) {
	cls, name, nargs, err := parseSig(s)
	if err != nil {
		return WrapperRule{}, err
	}
	rest := strings.TrimSpace(s[strings.Index(s, ">")+1:])
	fromPart, toPart, ok := strings.Cut(rest, "->")
	if !ok {
		return WrapperRule{}, fmt.Errorf("missing '->' in rule")
	}
	from, err := parseSlot(strings.TrimSpace(fromPart))
	if err != nil {
		return WrapperRule{}, err
	}
	var to []int
	for _, p := range strings.Split(toPart, ",") {
		slot, err := parseSlot(strings.TrimSpace(p))
		if err != nil {
			return WrapperRule{}, err
		}
		to = append(to, slot)
	}
	return WrapperRule{Class: cls, Name: name, NArgs: nargs, From: from, To: to}, nil
}

func parseSlot(s string) (int, error) {
	switch {
	case s == "base":
		return SlotBase, nil
	case s == "return":
		return SlotReturn, nil
	case strings.HasPrefix(s, "arg"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "arg"))
		if err != nil {
			return 0, fmt.Errorf("bad slot %q", s)
		}
		return n, nil
	}
	return 0, fmt.Errorf("bad slot %q (want base, return or argN)", s)
}

// DefaultWrapperRules is the built-in shortcut configuration, the
// analogue of FlowDroid's EasyTaintWrapper defaults.
const DefaultWrapperRules = `
# ------------------------------------------------------------- strings
wrap <java.lang.String: concat/1> base -> return
wrap <java.lang.String: concat/1> arg0 -> return
wrap <java.lang.String: substring/1> base -> return
wrap <java.lang.String: substring/2> base -> return
wrap <java.lang.String: toCharArray/0> base -> return
wrap <java.lang.String: getBytes/0> base -> return
wrap <java.lang.String: toUpperCase/0> base -> return
wrap <java.lang.String: toLowerCase/0> base -> return
wrap <java.lang.String: trim/0> base -> return
wrap <java.lang.String: split/1> base -> return
wrap <java.lang.String: replace/2> base -> return
wrap <java.lang.String: replace/2> arg1 -> return
wrap <java.lang.String: valueOf/1> arg0 -> return
wrap <java.lang.String: format/2> arg1 -> return
wrap <java.lang.String: init/1> arg0 -> base
wrap <java.lang.Object: toString/0> base -> return
exclude <java.lang.String: isEmpty/0>
exclude <java.lang.String: length/0>
exclude <java.lang.String: equals/1>
exclude <java.lang.String: startsWith/1>
exclude <java.lang.String: compareTo/1>

# ------------------------------------------------------ string builders
wrap <java.lang.StringBuilder: append/1> arg0 -> base, return
wrap <java.lang.StringBuilder: append/1> base -> return
wrap <java.lang.StringBuilder: insert/2> arg1 -> base, return
wrap <java.lang.StringBuilder: insert/2> base -> return
wrap <java.lang.StringBuilder: reverse/0> base -> return
wrap <java.lang.StringBuffer: append/1> arg0 -> base, return
wrap <java.lang.StringBuffer: append/1> base -> return
wrap <java.lang.StringBuffer: insert/2> arg1 -> base, return
wrap <java.lang.StringBuffer: insert/2> base -> return
wrap <java.lang.StringBuffer: reverse/0> base -> return

# ---------------------------------------------------------- collections
# Adding a tainted element taints the entire collection.
wrap <java.util.Collection: add/1> arg0 -> base
wrap <java.util.List: set/2> arg1 -> base
wrap <java.util.List: get/1> base -> return
wrap <java.util.List: remove/1> base -> return
wrap <java.util.LinkedList: addFirst/1> arg0 -> base
wrap <java.util.LinkedList: addLast/1> arg0 -> base
wrap <java.util.LinkedList: getFirst/0> base -> return
wrap <java.util.Vector: addElement/1> arg0 -> base
wrap <java.util.Vector: elementAt/1> base -> return
wrap <java.util.Collection: iterator/0> base -> return
wrap <java.util.Iterator: next/0> base -> return
wrap <java.util.Map: put/2> arg0 -> base
wrap <java.util.Map: put/2> arg1 -> base
wrap <java.util.Map: get/1> base -> return
wrap <java.util.Map: keySet/0> base -> return
wrap <java.util.Map: values/0> base -> return
wrap <java.util.Hashtable: elements/0> base -> return
wrap <java.util.StringTokenizer: init/1> arg0 -> base
wrap <java.util.StringTokenizer: nextToken/0> base -> return

# ------------------------------------------------- intents and bundles
wrap <android.content.Intent: putExtra/2> arg1 -> base
wrap <android.content.Intent: getStringExtra/1> base -> return
wrap <android.content.Intent: getExtras/0> base -> return
wrap <android.os.Bundle: putString/2> arg1 -> base
wrap <android.os.Bundle: getString/1> base -> return

# ----------------------------------------------------------- buffers/io
wrap <java.lang.Integer: parseInt/1> arg0 -> return
wrap <java.lang.Integer: valueOf/1> arg0 -> return
wrap <java.lang.Integer: intValue/0> base -> return
`

// Fingerprint returns a stable digest of the rule table, independent of
// registration order, for configuration fingerprinting (the summary
// store keys its namespaces by it — shortcut rules change transfer
// functions, so two runs may only share summaries when their wrappers
// agree).
func (w *Wrapper) Fingerprint() string {
	if w == nil {
		return "none"
	}
	var lines []string
	for _, rs := range w.rules {
		for _, r := range rs {
			lines = append(lines, fmt.Sprintf("%s:%s/%d:%d->%v", r.Class, r.Name, r.NArgs, r.From, r.To))
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// MergeWrappers combines several rule tables into a new one; nil tables
// are skipped. Rules from all inputs apply (duplicates are harmless).
func MergeWrappers(ws ...*Wrapper) *Wrapper {
	out := NewWrapper()
	for _, w := range ws {
		if w == nil {
			continue
		}
		for _, rs := range w.rules {
			for _, r := range rs {
				out.Add(r)
			}
		}
	}
	return out
}

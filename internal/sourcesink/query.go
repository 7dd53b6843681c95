package sourcesink

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"flowdroid/internal/ir"
)

// This file implements sink-subset selection: the sourcesink side of the
// demand-driven query mode. A query is a set of selectors over the
// configured sink rules; restricting a manager to a query makes
// SinkAtCall answer exactly as if the whole-program answer had been
// filtered to the selected rules — the property the pipeline's
// filtered-report equivalence contract rests on.

// MatchesSelector reports whether the selector selects this sink rule.
// A selector is matched against, in order:
//
//	label            the rule's label ("sms", "log", ...)
//	Class.method     class plus method name
//	Class.method/N   class, method name and arity
//
// The "<Class: method/N>" signature syntax of the rule format is also
// accepted.
func (s Sink) MatchesSelector(sel string) bool {
	sel = strings.TrimSpace(sel)
	if sel == "" {
		return false
	}
	if s.Label != "" && sel == s.Label {
		return true
	}
	if strings.HasPrefix(sel, "<") && strings.HasSuffix(sel, ">") {
		inner := strings.TrimSpace(sel[1 : len(sel)-1])
		cls, rest, ok := strings.Cut(inner, ":")
		if !ok {
			return false
		}
		sel = strings.TrimSpace(cls) + "." + strings.TrimSpace(rest)
	}
	if sig, arity, ok := strings.Cut(sel, "/"); ok {
		return sig == s.Class+"."+s.Name && arity == fmt.Sprint(s.NArgs)
	}
	return sel == s.Class+"."+s.Name
}

// matchesAny reports whether any selector selects the sink.
func (s Sink) matchesAny(selectors []string) bool {
	for _, sel := range selectors {
		if s.MatchesSelector(sel) {
			return true
		}
	}
	return false
}

// RestrictSinks limits the manager to the sink rules the selectors match:
// SinkAtCall still resolves a statement against the full rule table (so a
// statement matched by an earlier, unselected rule stays attributed to
// that rule and is not a sink), but only selected rules produce sink
// answers. Selectors that match no configured rule are an error — a query
// against them would be silently empty. Restricting an already restricted
// manager replaces the previous restriction.
func (m *Manager) RestrictSinks(selectors []string) error {
	var missing []string
	enabled := make(map[int]bool)
	for _, sel := range selectors {
		matched := false
		for i, snk := range m.sinks {
			if snk.MatchesSelector(sel) {
				enabled[i] = true
				matched = true
			}
		}
		if !matched {
			missing = append(missing, sel)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("sourcesink: sink selector(s) %s match no configured sink rule", strings.Join(missing, ", "))
	}
	m.enabledSinks = enabled
	return nil
}

// Restricted reports whether a sink query restricts this manager.
func (m *Manager) Restricted() bool { return m.enabledSinks != nil }

// QueriedSinks returns the sink rules a restriction enabled, in rule
// order; with no restriction it returns all sinks.
func (m *Manager) QueriedSinks() []Sink {
	if m.enabledSinks == nil {
		return m.sinks
	}
	out := make([]Sink, 0, len(m.enabledSinks))
	for i, s := range m.sinks {
		if m.enabledSinks[i] {
			out = append(out, s)
		}
	}
	return out
}

// QueryFingerprint fingerprints a selector set for summary-store and
// circuit-breaker keying: selectors are deduplicated and sorted so equal
// queries in any order fingerprint identically. The empty query (all
// sinks) is the empty string, keeping whole-program keys byte-identical
// to the pre-query pipeline's.
func QueryFingerprint(selectors []string) string {
	if len(selectors) == 0 {
		return ""
	}
	uniq := make([]string, 0, len(selectors))
	seen := make(map[string]bool)
	for _, s := range selectors {
		s = strings.TrimSpace(s)
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		uniq = append(uniq, s)
	}
	if len(uniq) == 0 {
		return ""
	}
	sort.Strings(uniq)
	h := sha256.New()
	for _, s := range uniq {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// PotentialSourceAt reports whether the statement could be recognized as
// a source by SourceAtCall under some widget assignment. It
// over-approximates the layout-source dataflow (any getText() call is
// potential when the app has password controls at all), so the cone pass
// can classify statements without running the lazy per-method widget
// analysis.
func (m *Manager) PotentialSourceAt(s ir.Stmt) bool {
	call := ir.CallOf(s)
	if call == nil {
		return false
	}
	cls := receiverClass(call)
	for _, src := range m.sources {
		if src.Param != Return {
			continue
		}
		if src.Name == call.Ref.Name && src.NArgs == call.Ref.NArgs && m.classMatches(cls, src.Class) {
			return true
		}
	}
	return call.Ref.Name == "getText" && call.Ref.NArgs == 0 && call.Base != nil && len(m.pwdIDs) > 0
}

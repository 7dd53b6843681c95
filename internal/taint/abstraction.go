package taint

import (
	"fmt"

	"flowdroid/internal/ir"
	"flowdroid/internal/sourcesink"
)

// SourceRecord remembers where a taint was born.
type SourceRecord struct {
	// Stmt is the statement that produced the taint: the source call, or
	// the entry of a callback whose parameter is sensitive.
	Stmt ir.Stmt
	// Source is the matching rule.
	Source sourcesink.Source
}

// Abstraction is the data-flow fact of both solvers: a tainted access
// path, its activation state, and provenance. Inactive abstractions are
// aliases of memory locations that have not been tainted yet; they only
// gain the ability to cause leaks after flowing over their activation
// statement (or over a call site whose callee subtree contains it).
//
// Abstractions are interned on (AP, active, activation, source); the
// predecessor link used for path reconstruction is deliberately excluded
// from the identity so the fact domain stays finite.
type Abstraction struct {
	AP     *AccessPath
	Active bool
	// Activation is the heap-write statement whose execution turns this
	// alias into a real taint; nil for active abstractions.
	Activation ir.Stmt
	// Source is the provenance of the taint.
	Source *SourceRecord

	// pred/predStmt record one way this fact was derived, for path
	// reconstruction. First derivation wins.
	pred     *Abstraction
	predStmt ir.Stmt

	// id is the abstraction's dense intern number (0 is the zero fact):
	// a path edge is keyed by its two facts' ids, see edgeKey.
	id uint32

	// self is the singleton slice {a}, built once at intern time so the
	// flow functions' many pass-through returns share it instead of
	// allocating a fresh one-element slice per evaluation. Callers only
	// ever range over flow-function results, never mutate them; an append
	// to a full len-1 slice reallocates and so cannot corrupt it.
	self []*Abstraction
}

// String renders the abstraction for debugging and reports.
func (a *Abstraction) String() string {
	if a == nil || a.AP == nil {
		return "0"
	}
	state := ""
	if !a.Active {
		state = fmt.Sprintf(" (inactive until %v)", a.Activation)
	}
	return a.AP.String() + state
}

// absKey is the identity of an abstraction in the solvers' fact maps.
type absKey struct {
	ap     *AccessPath
	active bool
	act    ir.Stmt
	src    *SourceRecord
}

// absInterner deduplicates abstractions; both solvers allocate facts
// through it.
type absInterner struct {
	abs map[absKey]*Abstraction
}

func newAbsInterner() *absInterner {
	return &absInterner{abs: make(map[absKey]*Abstraction)}
}

// get interns the abstraction with the given identity; pred/predStmt are
// recorded only on first creation, so the path witness is the first
// derivation in the solver's exploration order.
func (ai *absInterner) get(ap *AccessPath, active bool, act ir.Stmt, src *SourceRecord, pred *Abstraction, predStmt ir.Stmt) *Abstraction {
	k := absKey{ap, active, act, src}
	if a, ok := ai.abs[k]; ok {
		return a
	}
	a := &Abstraction{AP: ap, Active: active, Activation: act, Source: src, pred: pred, predStmt: predStmt, id: uint32(len(ai.abs))}
	a.self = []*Abstraction{a}
	ai.abs[k] = a
	return a
}

// size returns the number of distinct abstractions interned so far.
func (ai *absInterner) size() int { return len(ai.abs) }

// derive interns a successor abstraction of parent with a new access path
// but the same activation state and source.
func (ai *absInterner) derive(parent *Abstraction, ap *AccessPath, at ir.Stmt) *Abstraction {
	return ai.get(ap, parent.Active, parent.Activation, parent.Source, parent, at)
}

// deriveInactive interns an inactive alias of parent with the given
// activation statement.
func (ai *absInterner) deriveInactive(parent *Abstraction, ap *AccessPath, act ir.Stmt, at ir.Stmt) *Abstraction {
	return ai.get(ap, false, act, parent.Source, parent, at)
}

// activate interns the active version of an inactive abstraction.
func (ai *absInterner) activate(a *Abstraction, at ir.Stmt) *Abstraction {
	if a.Active {
		return a
	}
	return ai.get(a.AP, true, nil, a.Source, a, at)
}

// Path reconstructs the derivation chain from the taint's source to this
// abstraction, as a list of statements (source first). It follows the
// predecessor links recorded during propagation.
func (a *Abstraction) Path() []ir.Stmt {
	var rev []ir.Stmt
	seen := make(map[*Abstraction]bool)
	for cur := a; cur != nil && !seen[cur]; cur = cur.pred {
		seen[cur] = true
		if cur.predStmt != nil {
			rev = append(rev, cur.predStmt)
		}
	}
	if a.Source != nil && a.Source.Stmt != nil {
		rev = append(rev, a.Source.Stmt)
	}
	// Reverse and deduplicate consecutive repeats.
	var out []ir.Stmt
	for i := len(rev) - 1; i >= 0; i-- {
		if len(out) == 0 || out[len(out)-1] != rev[i] {
			out = append(out, rev[i])
		}
	}
	return out
}

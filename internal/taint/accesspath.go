// Package taint implements FlowDroid's core contribution: a fully
// context-, flow-, field- and object-sensitive taint analysis built from
// two cooperating IFDS solvers — a forward taint solver (Algorithm 1 of
// the paper) and an on-demand backward alias solver (Algorithm 2) — with
// context injection between them and activation statements preserving flow
// sensitivity.
package taint

import (
	"encoding/binary"
	"strings"
	"unsafe"

	"flowdroid/internal/ir"
)

// AccessPath is "x.f.g": a root (a local variable or a static field) plus
// a bounded chain of field dereferences. Following the paper, an access
// path implicitly describes all objects reachable through it: x.f covers
// x.f.g, x.f.h and so on. Paths longer than the configured maximum are
// truncated, which widens them (a sound over-approximation).
//
// AccessPaths are interned per engine; equality is pointer equality.
type AccessPath struct {
	// Base is the root local; nil when the root is a static field.
	Base *ir.Local
	// StaticRoot is the static field root; nil when Base is set.
	StaticRoot *ir.Field
	// Fields is the dereference chain, at most the engine's APLength.
	Fields []*ir.Field
}

// String renders the access path, e.g. "u.user.pwd" or "App.cache.f".
func (ap *AccessPath) String() string {
	var sb strings.Builder
	if ap.Base != nil {
		sb.WriteString(ap.Base.Name)
	} else if ap.StaticRoot != nil {
		sb.WriteString(ap.StaticRoot.Class.Name + "." + ap.StaticRoot.Name)
	}
	for _, f := range ap.Fields {
		sb.WriteString("." + f.Name)
	}
	return sb.String()
}

// IsStatic reports whether the path is rooted in a static field.
func (ap *AccessPath) IsStatic() bool { return ap.StaticRoot != nil }

// interner deduplicates access paths so the solvers can use pointer
// equality in their fact maps.
type interner struct {
	maxLen int
	paths  map[string]*AccessPath
}

func newInterner(maxLen int) *interner {
	return &interner{maxLen: maxLen, paths: make(map[string]*AccessPath)}
}

// intern returns the canonical path for key k, building it with mk when
// absent. k is a scratch byte key; the map lookup via string(k) compiles
// to an allocation-free probe, and the key is cloned to a real string
// only when a new entry is inserted.
func (in *interner) intern(k []byte, mk func() *AccessPath) *AccessPath {
	if ap, ok := in.paths[string(k)]; ok {
		return ap
	}
	ap := mk()
	in.paths[string(k)] = ap
	return ap
}

// size is the number of distinct access paths interned so far.
func (in *interner) size() int { return len(in.paths) }

// keyScratch is the stack buffer key() fills: a tag byte plus one 8-byte
// pointer per component covers the root and the default path lengths
// without spilling; longer paths fall back to an append that may heap-
// allocate, which only affects interner misses on unusually deep configs.
type keyScratch [1 + 8*9]byte

// key builds the identity of a path — the root pointer plus the field
// pointers, tagged by root kind — into buf. The previous implementation
// rendered pointers with fmt ("L%p.%p..."), which allocated on every
// lookup; the binary form in a caller-provided scratch buffer keeps the
// hot interner probes allocation-free.
func (in *interner) key(buf []byte, base *ir.Local, static *ir.Field, fields []*ir.Field) []byte {
	if base != nil {
		buf = append(buf, 'L')
		buf = binary.LittleEndian.AppendUint64(buf, uint64(uintptr(unsafe.Pointer(base))))
	} else {
		buf = append(buf, 'S')
		buf = binary.LittleEndian.AppendUint64(buf, uint64(uintptr(unsafe.Pointer(static))))
	}
	for _, f := range fields {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(uintptr(unsafe.Pointer(f))))
	}
	return buf
}

// local interns the path base.fields, truncating to the maximum length.
func (in *interner) local(base *ir.Local, fields ...*ir.Field) *AccessPath {
	if len(fields) > in.maxLen {
		fields = fields[:in.maxLen]
	}
	var scratch keyScratch
	k := in.key(scratch[:0], base, nil, fields)
	return in.intern(k, func() *AccessPath {
		return &AccessPath{Base: base, Fields: append([]*ir.Field(nil), fields...)}
	})
}

// static interns the path StaticRoot.fields.
func (in *interner) static(root *ir.Field, fields ...*ir.Field) *AccessPath {
	if len(fields) > in.maxLen {
		fields = fields[:in.maxLen]
	}
	var scratch keyScratch
	k := in.key(scratch[:0], nil, root, fields)
	return in.intern(k, func() *AccessPath {
		return &AccessPath{StaticRoot: root, Fields: append([]*ir.Field(nil), fields...)}
	})
}

// rebase re-roots the path onto a new local, keeping the field suffix:
// mapping x.F to y.F for parameter passing and copies.
func (in *interner) rebase(ap *AccessPath, newBase *ir.Local) *AccessPath {
	return in.local(newBase, ap.Fields...)
}

// appendField builds root.f.F from a path rooted at f's holder: storing
// y (with suffix F) into x.f yields x.f.F.
func (in *interner) appendField(base *ir.Local, f *ir.Field, suffix []*ir.Field) *AccessPath {
	fields := make([]*ir.Field, 0, len(suffix)+1)
	fields = append(fields, f)
	fields = append(fields, suffix...)
	return in.local(base, fields...)
}

// appendStatic builds C.s.F for a store into static field s.
func (in *interner) appendStatic(root *ir.Field, suffix []*ir.Field) *AccessPath {
	return in.static(root, suffix...)
}

// loadSuffix answers whether reading base.field yields a tainted value
// under ap, and with which residual suffix: ap = base (whole object) or
// ap = base.field.F both make the read tainted (suffix F, possibly
// empty); ap = base.other does not.
func loadSuffix(ap *AccessPath, base *ir.Local, field *ir.Field) ([]*ir.Field, bool) {
	if ap.Base != base {
		return nil, false
	}
	if len(ap.Fields) == 0 {
		// Whole object tainted: everything reachable is tainted.
		return nil, true
	}
	if ap.Fields[0] == field {
		return ap.Fields[1:], true
	}
	return nil, false
}

// loadStaticSuffix is loadSuffix for static roots.
func loadStaticSuffix(ap *AccessPath, root *ir.Field) ([]*ir.Field, bool) {
	if ap.StaticRoot != root {
		return nil, false
	}
	return ap.Fields, true
}

// rootedAt reports whether ap is rooted at the given local (any suffix):
// the object held by the local contains or is tainted data.
func rootedAt(ap *AccessPath, l *ir.Local) bool { return ap.Base == l }

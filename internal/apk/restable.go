package apk

import (
	"fmt"
	"sort"

	"flowdroid/internal/ir"
)

// Resource ID bases follow the layout of real aapt-generated R classes.
const (
	layoutIDBase = 0x7f030000
	widgetIDBase = 0x7f050000
)

// ResTable is the synthesized resource-ID table of an app: the stand-in
// for the compiled resources (R class) of a real APK. IDs are assigned
// deterministically from the sorted resource names, so analyses and tests
// see stable values.
type ResTable struct {
	byName map[string]int64 // "id/pwdString", "layout/main" -> id
	byID   map[int64]string
}

// NewResTable builds a table for the given widget-ID names and layout
// names.
func NewResTable(widgetIDs, layouts []string) *ResTable {
	t := &ResTable{byName: make(map[string]int64), byID: make(map[int64]string)}
	assign := func(names []string, kind string, base int64) {
		sorted := append([]string(nil), names...)
		sort.Strings(sorted)
		for i, n := range sorted {
			full := kind + "/" + n
			if _, dup := t.byName[full]; dup {
				continue
			}
			id := base + int64(i)
			t.byName[full] = id
			t.byID[id] = full
		}
	}
	assign(layouts, "layout", layoutIDBase)
	assign(widgetIDs, "id", widgetIDBase)
	return t
}

// Lookup resolves a symbolic name ("id/pwdString" or "layout/main").
func (t *ResTable) Lookup(name string) (int64, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// NameOf maps a resolved ID back to its symbolic name.
func (t *ResTable) NameOf(id int64) (string, bool) {
	n, ok := t.byID[id]
	return n, ok
}

// ResolveConstants resolves the symbolic resource constants (@id/...,
// @layout/...) of the app's code to their integer IDs: the code the
// loader declared, whose bodies are parsed on demand. It checks every
// name the load-time scan found now, so an unknown name is an error here,
// as the code references a resource the package does not define; each
// body's constants are resolved when it is parsed, through the program's
// parse hook.
func (t *ResTable) ResolveConstants(prog *ir.Program) error {
	for _, m := range prog.PendingMethods() {
		facts, _ := m.Facts()
		for _, name := range facts.Resources {
			if _, found := t.Lookup(name); !found {
				return undefinedResource(m, name)
			}
		}
	}
	prog.OnParse(t.resolveBody)
	return nil
}

func undefinedResource(m *ir.Method, name string) error {
	return fmt.Errorf("apk: %s references undefined resource @%s", m, name)
}

// resolveBody resolves the resource constants of one method body and
// returns the first undefined name as an error.
func (t *ResTable) resolveBody(m *ir.Method, body []ir.Stmt) error {
	var firstErr error
	resolve := func(v ir.Value) {
		c, ok := v.(*ir.Const)
		if !ok || c.Kind != ir.ResConst {
			return
		}
		id, found := t.Lookup(c.Str)
		if !found {
			if firstErr == nil {
				firstErr = undefinedResource(m, c.Str)
			}
			return
		}
		c.Int = id
	}
	for _, s := range body {
		switch s := s.(type) {
		case *ir.AssignStmt:
			resolve(s.RHS)
			if call, ok := s.RHS.(*ir.InvokeExpr); ok {
				for _, a := range call.Args {
					resolve(a)
				}
			}
			if b, ok := s.RHS.(*ir.Binop); ok {
				resolve(b.L)
				resolve(b.R)
			}
			if ar, ok := s.RHS.(*ir.ArrayRef); ok {
				resolve(ar.Index)
			}
			if ar, ok := s.LHS.(*ir.ArrayRef); ok {
				resolve(ar.Index)
			}
		case *ir.InvokeStmt:
			for _, a := range s.Call.Args {
				resolve(a)
			}
		case *ir.ReturnStmt:
			if s.Value != nil {
				resolve(s.Value)
			}
		}
	}
	return firstErr
}

// ConstID returns the resolved integer value of a constant operand, or
// (0, false) if v is not an integer or resource constant.
func ConstID(v ir.Value) (int64, bool) {
	c, ok := v.(*ir.Const)
	if !ok {
		return 0, false
	}
	switch c.Kind {
	case ir.IntConst, ir.ResConst:
		return c.Int, true
	}
	return 0, false
}

// Package cfg provides intraprocedural control-flow graphs over IR method
// bodies and the interprocedural CFG (ICFG) the IFDS solvers traverse. The
// ICFG combines per-method CFGs with a call graph, exposing the node
// relations the Reps-Horwitz-Sagiv framework needs: successors,
// predecessors, callees of call sites, callers of methods, start points
// and exits.
package cfg

import (
	"slices"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/ir"
)

// MethodCFG is the control-flow graph of one method body. Nodes are the
// body's statements; edge structure follows fallthrough, gotos and the
// both-ways branching of opaque conditionals.
type MethodCFG struct {
	Method *ir.Method
	succs  [][]int
	preds  [][]int
}

// New builds the CFG for a finalized method body.
func New(m *ir.Method) *MethodCFG {
	body := m.Body()
	c := &MethodCFG{
		Method: m,
		succs:  make([][]int, len(body)),
		preds:  make([][]int, len(body)),
	}
	addEdge := func(from, to int) {
		if to >= len(body) {
			return
		}
		c.succs[from] = append(c.succs[from], to)
		c.preds[to] = append(c.preds[to], from)
	}
	for i, s := range body {
		switch s := s.(type) {
		case *ir.GotoStmt:
			addEdge(i, s.TargetIndex)
		case *ir.IfStmt:
			// Opaque condition: both branches possible.
			addEdge(i, i+1)
			if s.TargetIndex != i+1 {
				addEdge(i, s.TargetIndex)
			}
		case *ir.ReturnStmt:
			// No successors.
		default:
			addEdge(i, i+1)
		}
	}
	return c
}

// Succs returns the intraprocedural successors of s.
func (c *MethodCFG) Succs(s ir.Stmt) []ir.Stmt { return c.stmtsAt(c.succs[s.Index()]) }

// Preds returns the intraprocedural predecessors of s.
func (c *MethodCFG) Preds(s ir.Stmt) []ir.Stmt { return c.stmtsAt(c.preds[s.Index()]) }

func (c *MethodCFG) stmtsAt(idx []int) []ir.Stmt {
	body := c.Method.Body()
	out := make([]ir.Stmt, len(idx))
	for i, j := range idx {
		out[i] = body[j]
	}
	return out
}

// Cache is a store of per-method CFGs. It can be shared across ICFGs
// (the scene layer shares one per program, so degrade-ladder retries and
// call-graph swaps never rebuild a method's CFG). Like the scene that
// owns it, it belongs to one single-threaded analysis.
type Cache struct {
	cfgs map[*ir.Method]*MethodCFG
}

// NewCache creates an empty CFG cache.
func NewCache() *Cache {
	return &Cache{cfgs: make(map[*ir.Method]*MethodCFG)}
}

// CFGOf returns the cached CFG of m, building it on first use.
func (c *Cache) CFGOf(m *ir.Method) *MethodCFG {
	g := c.cfgs[m]
	if g == nil {
		g = New(m)
		c.cfgs[m] = g
	}
	return g
}

// CacheProvider is implemented by program models (the scene layer) that
// carry a shared CFG cache; NewICFG adopts it instead of creating a
// private one.
type CacheProvider interface {
	CFGs() *Cache
}

// ICFG is the interprocedural control-flow graph: per-method CFGs stitched
// together by a call graph. CFGs are built lazily through the cache.
type ICFG struct {
	Prog  ir.Hierarchy
	Graph *callgraph.Graph

	cache *Cache
}

// NewICFG wraps a program model and call graph into an ICFG. When the
// model carries a shared CFG cache (scene.Scene does), that cache is
// adopted, so successive ICFGs over the same program reuse every CFG
// already built.
func NewICFG(h ir.Hierarchy, g *callgraph.Graph) *ICFG {
	cache := NewCache()
	if cp, ok := h.(CacheProvider); ok {
		cache = cp.CFGs()
	}
	return &ICFG{Prog: h, Graph: g, cache: cache}
}

// CFGOf returns the (cached) intraprocedural CFG of m.
func (g *ICFG) CFGOf(m *ir.Method) *MethodCFG { return g.cache.CFGOf(m) }

// SuccsOf returns the intraprocedural successors of s (the return sites
// when s is a call).
func (g *ICFG) SuccsOf(s ir.Stmt) []ir.Stmt { return g.CFGOf(s.Method()).Succs(s) }

// PredsOf returns the intraprocedural predecessors of s.
func (g *ICFG) PredsOf(s ir.Stmt) []ir.Stmt { return g.CFGOf(s.Method()).Preds(s) }

// IsCall reports whether s is a call statement.
func (g *ICFG) IsCall(s ir.Stmt) bool { return ir.IsCall(s) }

// CalleesOf returns the callees of call site s that have bodies the solver
// can descend into; bodyless stubs are handled by call-to-return flow
// functions instead. They come in ir.CompareMethods order, not in the
// order the call graph's builder discovered them; the solver's witnesses
// follow this order.
func (g *ICFG) CalleesOf(s ir.Stmt) []*ir.Method {
	var out []*ir.Method
	for _, m := range g.Graph.CalleesOf(s) {
		if !m.Abstract() {
			out = append(out, m)
		}
	}
	slices.SortFunc(out, ir.CompareMethods)
	return out
}

// AllCalleesOf returns all call targets including stubs.
func (g *ICFG) AllCalleesOf(s ir.Stmt) []*ir.Method { return g.Graph.CalleesOf(s) }

// CallersOf returns the call sites that may invoke m.
func (g *ICFG) CallersOf(m *ir.Method) []ir.Stmt { return g.Graph.CallersOf(m) }

// StartPoint returns m's entry statement.
func (g *ICFG) StartPoint(m *ir.Method) ir.Stmt { return m.EntryStmt() }

// ExitStmts returns m's return statements.
func (g *ICFG) ExitStmts(m *ir.Method) []ir.Stmt { return m.ExitStmts() }

// IsExit reports whether s is a return statement.
func (g *ICFG) IsExit(s ir.Stmt) bool {
	_, ok := s.(*ir.ReturnStmt)
	return ok
}

// IsStartPoint reports whether s is the first statement of its method.
func (g *ICFG) IsStartPoint(s ir.Stmt) bool { return s.Index() == 0 }

// CallsIn returns the call statements inside m.
func (g *ICFG) CallsIn(m *ir.Method) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range m.Body() {
		if ir.IsCall(s) {
			out = append(out, s)
		}
	}
	return out
}

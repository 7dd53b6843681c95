// Package cfg provides intraprocedural control-flow graphs over IR method
// bodies and the interprocedural CFG (ICFG) the IFDS solvers traverse. The
// ICFG combines per-method CFGs with a call graph, exposing the node
// relations the Reps-Horwitz-Sagiv framework needs: successors,
// predecessors, callees of call sites, callers of methods and exits.
package cfg

import (
	"slices"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/ir"
)

// MethodCFG is the control-flow graph of one method body. Nodes are the
// body's statements; edge structure follows fallthrough, gotos and the
// both-ways branching of opaque conditionals. The successor and
// predecessor lists are built once, indexed by Stmt.Index(), and shared
// with every caller: Succs and Preds allocate nothing.
type MethodCFG struct {
	Method *ir.Method
	succs  [][]ir.Stmt
	preds  [][]ir.Stmt
}

// successors returns the body indices control may reach from body[i]
// (-1 where there is none), in the order Succs lists them.
func successors(body []ir.Stmt, i int) (a, b int) {
	a, b = -1, -1
	switch s := body[i].(type) {
	case *ir.GotoStmt:
		a = s.TargetIndex
	case *ir.IfStmt:
		// Opaque condition: both branches possible.
		a = i + 1
		if s.TargetIndex != i+1 {
			b = s.TargetIndex
		}
	case *ir.ReturnStmt:
		// No successors.
	default:
		a = i + 1
	}
	if b >= len(body) {
		b = -1
	}
	if a >= len(body) {
		a, b = b, -1
	}
	return a, b
}

// New builds the CFG for a finalized method body. Both edge lists are
// carved out of one backing array, so a CFG costs a fixed handful of
// allocations whatever the body's size.
func New(m *ir.Method) *MethodCFG {
	body := m.Body()
	n := len(body)
	// predAt[j+1] counts j's predecessors; after the prefix sum, they
	// occupy predBuf[predAt[j]:predAt[j+1]].
	predAt := make([]int, n+1)
	edges := 0
	for i := range body {
		a, b := successors(body, i)
		for _, j := range [2]int{a, b} {
			if j >= 0 {
				predAt[j+1]++
				edges++
			}
		}
	}
	for j := 1; j <= n; j++ {
		predAt[j] += predAt[j-1]
	}
	buf := make([]ir.Stmt, 2*edges)
	succBuf, predBuf := buf[:edges:edges], buf[edges:]
	c := &MethodCFG{
		Method: m,
		succs:  make([][]ir.Stmt, n),
		preds:  make([][]ir.Stmt, n),
	}
	for j := range c.preds {
		lo := predAt[j]
		c.preds[j] = predBuf[lo:lo:predAt[j+1]]
	}
	off := 0
	for i, s := range body {
		a, b := successors(body, i)
		lo := off
		for _, j := range [2]int{a, b} {
			if j >= 0 {
				succBuf[off] = body[j]
				off++
				c.preds[j] = append(c.preds[j], s)
			}
		}
		c.succs[i] = succBuf[lo:off:off]
	}
	return c
}

// Succs returns the intraprocedural successors of s. The slice is shared;
// callers must not modify it.
func (c *MethodCFG) Succs(s ir.Stmt) []ir.Stmt { return c.succs[s.Index()] }

// Preds returns the intraprocedural predecessors of s. The slice is
// shared; callers must not modify it.
func (c *MethodCFG) Preds(s ir.Stmt) []ir.Stmt { return c.preds[s.Index()] }

// Cache is a store of per-method CFGs. It can be shared (the scene
// layer shares one per program, so the verifier and the ICFG never
// rebuild a method's CFG). Like the scene that owns it, it belongs to
// one single-threaded analysis.
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

// IsCall reports whether s is a call statement.
func (g *ICFG) IsCall(s ir.Stmt) bool { return ir.IsCall(s) }

// CalleesOf returns the callees of call site s that have bodies the solver
// can descend into; bodyless stubs are handled by call-to-return flow
// functions instead. They come in ir.CompareMethods order, not in the
// order the call graph's builder discovered them; the solver's witnesses
// follow this order. The list is freshly built on each call; the taint
// engine memoizes it per call site.
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

// IsExit reports whether s is a return statement.
func (g *ICFG) IsExit(s ir.Stmt) bool {
	_, ok := s.(*ir.ReturnStmt)
	return ok
}

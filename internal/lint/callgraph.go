package lint

import (
	"go/ast"
	"go/types"
)

// CallGraph indexes the functions declared in one package and resolves
// static call (and function-value reference) edges between them. It is
// the shared interprocedural substrate of the suite: obsnoclock,
// poollifetime, policypurity and tracegate all walk it
// rather than re-deriving receiver-method resolution per analyzer
// (DESIGN.md §16). One graph is built lazily per analyzed package and
// shared across passes.
type CallGraph struct {
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
	funcs []*types.Func // declaration order: deterministic iteration
}

// NewCallGraph indexes every function and method declared in files.
func NewCallGraph(files []*ast.File, info *types.Info) *CallGraph {
	g := &CallGraph{
		info:  info,
		decls: make(map[*types.Func]*ast.FuncDecl),
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				g.decls[fn] = fd
				g.funcs = append(g.funcs, fn)
			}
		}
	}
	return g
}

// Funcs returns every declared function in declaration order.
func (g *CallGraph) Funcs() []*types.Func { return g.funcs }

// Decl returns the declaration of fn, or nil when fn is declared
// outside the analyzed package (and therefore out of static reach).
func (g *CallGraph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Callee resolves the static callee of a call expression: a
// package-level function, a method (including interface methods), or
// nil for calls through function values and type conversions.
func (g *CallGraph) Callee(call *ast.CallExpr) *types.Func {
	return calleeFunc(g.info, call)
}

// FuncRef resolves an expression that names a function or method value
// (an identifier or selector used as a value, e.g. a callback
// argument), or nil.
func (g *CallGraph) FuncRef(expr ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, _ := g.info.Uses[id].(*types.Func)
	return fn
}

// Reach returns the set of in-package functions transitively reachable
// from roots. An edge is any mention of a declared function — a static
// call, or a bare reference that stores or passes the function as a
// value (the reference may be invoked later, so reachability must be
// conservative about it). Roots themselves are included.
func (g *CallGraph) Reach(roots ...*types.Func) map[*types.Func]bool {
	seen := make(map[*types.Func]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if fn == nil || seen[fn] {
			return
		}
		seen[fn] = true
		decl := g.decls[fn]
		if decl == nil || decl.Body == nil {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if ref, ok := g.info.Uses[id].(*types.Func); ok && g.decls[ref] != nil {
				visit(ref)
			}
			return true
		})
	}
	for _, root := range roots {
		visit(root)
	}
	return seen
}

// Reacher answers "does this function (or function body) reach a
// classified API?", following static calls through functions declared
// in the analyzed package. classify maps a callee to a human-readable
// culprit name, or "" for harmless callees; results are memoized per
// function.
type Reacher struct {
	g        *CallGraph
	classify func(*types.Func) string
	memo     map[*types.Func]string // "" = does not reach; else culprit
}

// Reacher builds a memoized reachability query over the graph.
func (g *CallGraph) Reacher(classify func(*types.Func) string) *Reacher {
	return &Reacher{g: g, classify: classify, memo: make(map[*types.Func]string)}
}

// FromCallback inspects a call argument; when it is a function
// (literal, or a reference to a function or method value) that reaches
// a classified API, it returns the culprit name.
func (r *Reacher) FromCallback(arg ast.Expr) string {
	if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
		return r.bodyReaches(lit.Body, make(map[*types.Func]bool))
	}
	if fn := r.g.FuncRef(arg); fn != nil {
		return r.funcReaches(fn, make(map[*types.Func]bool))
	}
	return ""
}

func (r *Reacher) funcReaches(fn *types.Func, seen map[*types.Func]bool) string {
	if culprit := r.classify(fn); culprit != "" {
		return culprit
	}
	if seen[fn] {
		return ""
	}
	seen[fn] = true
	if culprit, ok := r.memo[fn]; ok {
		return culprit
	}
	decl := r.g.decls[fn]
	if decl == nil || decl.Body == nil {
		return "" // declared outside this package: out of static reach
	}
	culprit := r.bodyReaches(decl.Body, seen)
	r.memo[fn] = culprit
	return culprit
}

func (r *Reacher) bodyReaches(body ast.Node, seen map[*types.Func]bool) string {
	var culprit string
	ast.Inspect(body, func(n ast.Node) bool {
		if culprit != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := r.g.Callee(call)
		if callee == nil {
			return true
		}
		if c := r.funcReaches(callee, seen); c != "" {
			culprit = c
			return false
		}
		return true
	})
	return culprit
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TraceGate enforces the sampled-tracing contract in the executor
// (DESIGN.md §11): every obs.Tracer.Span/Instant emission on the
// per-fragment / per-slave hot path must be dominated by a sampling
// guard — `fr.tracing()` / `q.traced` — so unsampled queries never pay
// for detail formatting or trace-buffer appends. The check is
// interprocedural: an emission inside a helper (traceInstant,
// schedEvent) is fine as long as every in-package path reaching the
// helper is itself guarded; it is flagged when some caller chain can
// reach it with no guard established.
var TraceGate = &Analyzer{
	Name: "tracegate",
	Doc: "Tracer.Span/Instant emissions in the executor must be dominated by a " +
		"tracing()/traced sampling guard on every reaching path",
	Run: runTraceGate,
}

// traceEmitters are the Tracer methods that append to the trace buffer.
var traceEmitters = map[string]bool{
	"Span":    true,
	"Instant": true,
}

// traceEmit is one direct Tracer.Span/Instant call site.
type traceEmit struct {
	pos     token.Pos
	name    string // "Span" or "Instant"
	guarded bool
}

// traceRef is one reference from a function body to an in-package
// declared function (call or bare value reference).
type traceRef struct {
	caller  *types.Func
	guarded bool
}

type traceFuncInfo struct {
	emits []traceEmit
	// refs lists every reference to an in-package declared function, in
	// source order, and whether a sampling guard dominated the site.
	refs []funcRef
}

type funcRef struct {
	callee  *types.Func
	guarded bool
}

func runTraceGate(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(), "internal/exec") {
		return nil
	}
	g := pass.CallGraph()

	infos := make(map[*types.Func]*traceFuncInfo)
	refsBy := make(map[*types.Func][]traceRef)
	for _, fn := range g.Funcs() {
		decl := g.Decl(fn)
		if decl == nil || decl.Body == nil {
			continue
		}
		w := &traceWalker{pass: pass, g: g, info: &traceFuncInfo{}}
		w.walkBlock(decl.Body.List, false)
		infos[fn] = w.info
		for _, ref := range w.info.refs {
			refsBy[ref.callee] = append(refsBy[ref.callee], traceRef{caller: fn, guarded: ref.guarded})
		}
	}

	// Fixpoint: a function is reachable-unguarded when it has no
	// in-package reference at all (an entry point: called externally,
	// dynamically, or by the scheduler loop itself), or when some
	// unguarded reference site sits in a reachable-unguarded caller.
	unguarded := make(map[*types.Func]bool)
	for fn := range infos {
		if len(refsBy[fn]) == 0 {
			unguarded[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range infos {
			if unguarded[fn] {
				continue
			}
			for _, ref := range refsBy[fn] {
				if !ref.guarded && unguarded[ref.caller] {
					unguarded[fn] = true
					changed = true
					break
				}
			}
		}
	}

	for _, fn := range g.Funcs() {
		info := infos[fn]
		if info == nil || !unguarded[fn] {
			continue
		}
		for _, e := range info.emits {
			if e.guarded {
				continue
			}
			pass.Reportf(e.pos,
				"Tracer.%s emission reachable with no sampling guard: per-fragment/per-slave "+
					"trace emission must be dominated by a tracing()/traced check on every path "+
					"so unsampled queries never pay for detail formatting (DESIGN.md §16)", e.name)
		}
	}
	return nil
}

// traceWalker walks one function body tracking whether a sampling
// guard dominates the current statement.
type traceWalker struct {
	pass *Pass
	g    *CallGraph
	info *traceFuncInfo
}

func (w *traceWalker) walkBlock(stmts []ast.Stmt, guarded bool) {
	for _, st := range stmts {
		guarded = w.walkStmt(st, guarded)
	}
}

// walkStmt processes one statement and returns the guard state for the
// statements that follow it (an `if !tracing() { return }` early exit
// leaves the rest of the block guarded).
func (w *traceWalker) walkStmt(st ast.Stmt, guarded bool) bool {
	switch s := st.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, guarded)
		}
		w.scan(s.Cond, guarded)
		g := guarded || hasGuardToken(s.Cond)
		w.walkStmt(s.Body, g)
		if s.Else != nil {
			w.walkStmt(s.Else, guarded)
		}
		if g && !guarded && blockTerminates(s.Body) {
			return true
		}
	case *ast.BlockStmt:
		w.walkBlock(s.List, guarded)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, guarded)
		}
		if s.Cond != nil {
			w.scan(s.Cond, guarded)
		}
		if s.Post != nil {
			w.walkStmt(s.Post, guarded)
		}
		w.walkBlock(s.Body.List, guarded)
	case *ast.RangeStmt:
		w.scan(s.X, guarded)
		w.walkBlock(s.Body.List, guarded)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, guarded)
		}
		if s.Tag != nil {
			w.scan(s.Tag, guarded)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			g := guarded
			for _, e := range cc.List {
				w.scan(e, guarded)
				if hasGuardToken(e) {
					g = true
				}
			}
			w.walkBlock(cc.Body, g)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, guarded)
		}
		w.walkStmt(s.Assign, guarded)
		for _, c := range s.Body.List {
			w.walkBlock(c.(*ast.CaseClause).Body, guarded)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.walkStmt(cc.Comm, guarded)
			}
			w.walkBlock(cc.Body, guarded)
		}
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, guarded)
	default:
		w.scan(st, guarded)
	}
	return guarded
}

// scan records Tracer emissions and in-package function references in a
// leaf statement or expression under the given guard state.
func (w *traceWalker) scan(n ast.Node, guarded bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(w.pass.TypesInfo, n); fn != nil &&
				traceEmitters[fn.Name()] && recvBaseName(fn) == "Tracer" &&
				pathHasSuffix(funcPkgPath(fn), "internal/obs") {
				w.info.emits = append(w.info.emits, traceEmit{pos: n.Pos(), name: fn.Name(), guarded: guarded})
			}
		case *ast.Ident:
			if fn, ok := w.pass.TypesInfo.Uses[n].(*types.Func); ok && w.g.Decl(fn) != nil {
				w.info.refs = append(w.info.refs, funcRef{callee: fn, guarded: guarded})
			}
		}
		return true
	})
}

// hasGuardToken reports whether the expression mentions the sampling
// guard idiom: the `traced` flag (q.traced, fr.traced) or a call to a
// method named `tracing`.
func hasGuardToken(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == "traced" {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "tracing" {
				found = true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "tracing" {
				found = true
			}
		}
		return !found
	})
	return found
}

// blockTerminates reports whether control cannot fall out of the end of
// b: its last statement returns, branches away or panics.
func blockTerminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	return stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return blockTerminates(s)
	case *ast.IfStmt:
		return blockTerminates(s.Body) && s.Else != nil && stmtTerminates(s.Else)
	}
	return false
}

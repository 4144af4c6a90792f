package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// PoolLifetime enforces the pooled-object lifetime discipline on the
// function-local uses of the module's three sync.Pools (the executor's
// scPool, the virtual clock's wakePool and goRunnerPool; Virtual.park
// is the one function-local site left): a value obtained from a pool
// must not outlive its recycle point. Two rules, checked
// per function over the shared call graph (getters and putters are
// classified transitively, so `sc := e.getSlaveCtx()` and
// `e.putSlaveCtx(sc)` count the same as direct Pool.Get/Put):
//
//  1. use-after-recycle — once a pooled value is handed back (Put, or
//     any call that transitively recycles it), no later statement on
//     that path may touch it: the pool may have re-issued the object
//     to another goroutine.
//  2. escape-then-recycle — a pooled value stored into a field, global,
//     or channel must not be recycled later in the same function: the
//     escaped alias would dangle into the pool.
//
// Only locals bound directly from a getter call are tracked, so
// ownership handoffs through parameters (slave contexts and
// go-runners held by an owner across functions or goroutines) stay out
// of scope — those are the owner's calls by construction.
var PoolLifetime = &Analyzer{
	Name: "poollifetime",
	Doc: "pooled values must not escape past their recycle point: no use after Put, " +
		"no recycle after escaping",
	Run: runPoolLifetime,
}

// poolRecv reports whether fn is a method of sync.Pool.
func poolRecv(fn *types.Func) bool {
	return funcPkgPath(fn) == "sync" && recvBaseName(fn) == "Pool"
}

// poolClassify holds the package's transitive getter/putter sets.
type poolClassify struct {
	g *CallGraph
	// getters return a pooled value (directly or through another getter).
	getters map[*types.Func]bool
	// putters recycle one of their inputs: the value set holds the
	// parameter indices recycled, with -1 for the receiver.
	putters map[*types.Func]map[int]bool
}

func classifyPools(g *CallGraph) *poolClassify {
	c := &poolClassify{
		g:       g,
		getters: make(map[*types.Func]bool),
		putters: make(map[*types.Func]map[int]bool),
	}
	// Fixpoint: getter/putter-ness flows through in-package wrappers
	// (getSlaveCtx -> scPool.Get, putSlaveCtx -> scPool.Put). The
	// wrapper depth bounds the iteration count.
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Funcs() {
			decl := g.Decl(fn)
			if decl == nil || decl.Body == nil {
				continue
			}
			if !c.getters[fn] && c.returnsPooled(decl) {
				c.getters[fn] = true
				changed = true
			}
			for idx := range c.recycledInputs(fn, decl) {
				if c.putters[fn] == nil {
					c.putters[fn] = make(map[int]bool)
				}
				if !c.putters[fn][idx] {
					c.putters[fn][idx] = true
					changed = true
				}
			}
		}
	}
	return c
}

// getterExpr reports whether e produces a pooled value: a Pool.Get or
// classified-getter call, possibly wrapped in a type assertion, or an
// identifier already known tainted.
func (c *poolClassify) getterExpr(e ast.Expr, tainted map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.TypeAssertExpr:
		return c.getterExpr(e.X, tainted)
	case *ast.CallExpr:
		callee := c.g.Callee(e)
		if callee == nil {
			return false
		}
		return (poolRecv(callee) && callee.Name() == "Get") || c.getters[callee]
	case *ast.Ident:
		return tainted != nil && tainted[c.objOf(e)]
	}
	return false
}

func (c *poolClassify) objOf(id *ast.Ident) types.Object {
	if obj := c.g.info.Uses[id]; obj != nil {
		return obj
	}
	return c.g.info.Defs[id]
}

// returnsPooled reports whether some return path of decl yields a
// value tainted from a pool get.
func (c *poolClassify) returnsPooled(decl *ast.FuncDecl) bool {
	tainted := make(map[types.Object]bool)
	// Two passes over the body propagate taint through the straight-line
	// binding chains the getters actually use (v := pool.Get(); b := v.(*T)).
	for range 2 {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range assign.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				var rhs ast.Expr
				if len(assign.Rhs) == len(assign.Lhs) {
					rhs = assign.Rhs[i]
				} else if i == 0 {
					rhs = assign.Rhs[0] // comma-ok form: value is LHS[0]
				} else {
					continue
				}
				if c.getterExpr(rhs, tainted) {
					tainted[c.objOf(id)] = true
				}
			}
			return true
		})
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found {
			return !found
		}
		for _, res := range ret.Results {
			if c.getterExpr(res, tainted) {
				found = true
			}
		}
		return true
	})
	return found
}

// recycledInputs returns the set of fn's input positions (param index,
// -1 = receiver) that the body hands to a pool Put or to another
// putter.
func (c *poolClassify) recycledInputs(fn *types.Func, decl *ast.FuncDecl) map[int]bool {
	inputs := inputObjects(fn)
	if len(inputs) == 0 {
		return nil
	}
	out := make(map[int]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, root := range c.recycledArgs(call) {
			if idx, ok := inputs[root]; ok {
				out[idx] = true
			}
		}
		return true
	})
	return out
}

// recycledArgs resolves the objects a call recycles: Put's argument, a
// putter's recycling arguments, or a receiver-putter's receiver.
func (c *poolClassify) recycledArgs(call *ast.CallExpr) []types.Object {
	callee := c.g.Callee(call)
	if callee == nil {
		return nil
	}
	var roots []ast.Expr
	if poolRecv(callee) && callee.Name() == "Put" && len(call.Args) == 1 {
		roots = append(roots, call.Args[0])
	}
	if rec := c.putters[callee]; rec != nil {
		idxs := make([]int, 0, len(rec))
		for idx := range rec {
			idxs = append(idxs, idx)
		}
		slices.Sort(idxs)
		for _, idx := range idxs {
			if idx == -1 {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					roots = append(roots, sel.X)
				}
			} else if idx < len(call.Args) {
				roots = append(roots, call.Args[idx])
			}
		}
	}
	var out []types.Object
	for _, e := range roots {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := c.objOf(id); obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// inputObjects maps fn's receiver and parameter objects to recycle
// indices (-1 for the receiver).
func inputObjects(fn *types.Func) map[types.Object]int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make(map[types.Object]int)
	if r := sig.Recv(); r != nil {
		out[r] = -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out[sig.Params().At(i)] = i
	}
	return out
}

func runPoolLifetime(pass *Pass) error {
	g := pass.CallGraph()
	c := classifyPools(g)
	for _, fn := range g.Funcs() {
		decl := g.Decl(fn)
		if decl == nil || decl.Body == nil {
			continue
		}
		checkPooledLocals(pass, c, decl)
	}
	return nil
}

// pooledVar is one tracked local bound directly from a getter call.
type pooledVar struct {
	obj types.Object
	// reported caps the walk at one finding per rule per variable.
	usedAfter, escThenPut bool
}

// checkPooledLocals finds locals bound from getter calls in decl and
// walks the body once per rule family.
func checkPooledLocals(pass *Pass, c *poolClassify, decl *ast.FuncDecl) {
	var tracked []*pooledVar
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures own their bindings; walked separately
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			var rhs ast.Expr
			if len(assign.Rhs) == len(assign.Lhs) {
				rhs = assign.Rhs[i]
			} else if i == 0 {
				rhs = assign.Rhs[0]
			} else {
				continue
			}
			if c.getterExpr(rhs, nil) {
				if obj := c.g.info.Defs[id]; obj != nil {
					tracked = append(tracked, &pooledVar{obj: obj})
				}
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}
	for _, v := range tracked {
		w := &poolWalker{pass: pass, c: c, v: v}
		w.walkList(decl.Body.List, poolState{})
	}
}

// poolState is the per-path tracking state for one pooled local.
type poolState struct {
	recycledAt token.Pos // a dominating recycle site, or NoPos
	escapedAt  token.Pos // stored into field/global/channel, or NoPos
}

type poolWalker struct {
	pass *Pass
	c    *poolClassify
	v    *pooledVar
}

// walkList processes one statement list. Branch bodies are walked with
// a copy of the state (their recycles are conditional, so they do not
// dominate the fall-through path), while escapes propagate out of
// branches (a may-escape on any path poisons a later unconditional
// recycle).
func (w *poolWalker) walkList(list []ast.Stmt, st poolState) poolState {
	for _, stmt := range list {
		st = w.walkStmt(stmt, st)
	}
	return st
}

func (w *poolWalker) walkStmt(stmt ast.Stmt, st poolState) poolState {
	// Rule 1: anything touching the value after a dominating recycle.
	if st.recycledAt.IsValid() {
		if rebind, usesBefore := w.rebinds(stmt); rebind {
			if usesBefore && !w.v.usedAfter {
				w.v.usedAfter = true
				w.reportUseAfter(stmt.Pos(), st.recycledAt)
			}
			st.recycledAt = token.NoPos // fresh value under the old name
			return st
		}
		if use := w.usesIn(stmt); use.IsValid() && !w.v.usedAfter {
			w.v.usedAfter = true
			w.reportUseAfter(use, st.recycledAt)
		}
		return st
	}

	// Escapes anywhere in the statement (including branch arms).
	if esc := w.firstEscape(stmt); esc.IsValid() && !st.escapedAt.IsValid() {
		st.escapedAt = esc
	}

	// Rule 2 + recycle tracking: only recycles that are direct
	// statements at this level dominate what follows.
	switch s := stmt.(type) {
	case *ast.ExprStmt, *ast.AssignStmt:
		if rec := w.recycleIn(s); rec.IsValid() {
			if st.escapedAt.IsValid() && !w.v.escThenPut {
				w.v.escThenPut = true
				w.pass.Reportf(rec,
					"pooled %s is recycled here but escaped into longer-lived storage at line %d: "+
						"the surviving alias will dangle into the pool and race with the next Get "+
						"(DESIGN.md §16)",
					w.v.obj.Name(), w.pass.Fset.Position(st.escapedAt).Line)
			}
			st.recycledAt = rec
		}
	case *ast.BlockStmt:
		st = w.walkList(s.List, st)
	case *ast.IfStmt:
		w.walkBranch(blockStmts(s.Body), st)
		if s.Else != nil {
			w.walkBranch([]ast.Stmt{s.Else}, st)
		}
	case *ast.ForStmt:
		w.walkBranch(blockStmts(s.Body), st)
	case *ast.RangeStmt:
		w.walkBranch(blockStmts(s.Body), st)
	case *ast.SwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				w.walkBranch(cc.Body, st)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				w.walkBranch(cc.Body, st)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				w.walkBranch(cc.Body, st)
			}
		}
	case *ast.LabeledStmt:
		st = w.walkStmt(s.Stmt, st)
	}
	return st
}

func blockStmts(b *ast.BlockStmt) []ast.Stmt {
	if b == nil {
		return nil
	}
	return b.List
}

// walkBranch checks a conditional body with a copy of the state; its
// effects stay inside the branch.
func (w *poolWalker) walkBranch(list []ast.Stmt, st poolState) {
	w.walkList(list, st)
}

// rebinds reports whether stmt assigns a fresh value to the tracked
// variable (clearing recycled state), and whether the RHS still uses
// the old value.
func (w *poolWalker) rebinds(stmt ast.Stmt) (rebind, usesBefore bool) {
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false, false
	}
	for _, lhs := range assign.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && w.c.objOf(id) == w.v.obj {
			rebind = true
		}
	}
	if rebind {
		for _, rhs := range assign.Rhs {
			if w.usesIn(rhs).IsValid() {
				usesBefore = true
			}
		}
	}
	return rebind, usesBefore
}

// usesIn returns the position of the first mention of the tracked
// variable in n (outside closures and defers), or NoPos.
func (w *poolWalker) usesIn(n ast.Node) token.Pos {
	pos := token.NoPos
	ast.Inspect(n, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.Ident:
			if w.c.objOf(n) == w.v.obj {
				pos = n.Pos()
			}
		}
		return true
	})
	return pos
}

// firstEscape finds a store of the tracked value into something that
// outlives the function: a field, map or slice element, a dereference,
// a package-level variable, or a channel send.
func (w *poolWalker) firstEscape(stmt ast.Stmt) token.Pos {
	pos := token.NoPos
	ast.Inspect(stmt, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if w.usesIn(n.Value).IsValid() {
				pos = n.Arrow
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !w.escapingDest(lhs) {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else {
					rhs = n.Rhs[0]
				}
				if p := w.usesIn(rhs); p.IsValid() {
					pos = p
				}
			}
		}
		return true
	})
	return pos
}

// escapingDest reports whether an assignment destination stores beyond
// the frame: a selector, index or dereference whose base is not the
// tracked value itself, or a package-level variable.
func (w *poolWalker) escapingDest(lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		// Stores INTO the tracked value (q.rep = ...) initialize it;
		// stores into anything else publish aliases.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && w.c.objOf(id) == w.v.obj {
			return false
		}
		return true
	case *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := w.c.objOf(e)
		v, ok := obj.(*types.Var)
		return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() // package-level var
	}
	return false
}

// recycleIn returns the position of a call in stmt that recycles the
// tracked value, or NoPos.
func (w *poolWalker) recycleIn(stmt ast.Stmt) token.Pos {
	pos := token.NoPos
	ast.Inspect(stmt, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			for _, obj := range w.c.recycledArgs(n) {
				if obj == w.v.obj {
					pos = n.Pos()
				}
			}
		}
		return true
	})
	return pos
}

func (w *poolWalker) reportUseAfter(use token.Pos, recycled token.Pos) {
	w.pass.Reportf(use,
		"pooled %s is used here after being recycled at line %d: the pool may have "+
			"re-issued it to a concurrent getter, so every later access races with the new "+
			"owner (DESIGN.md §16)",
		w.v.obj.Name(), w.pass.Fset.Position(recycled).Line)
}

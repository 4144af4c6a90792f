package lint

import (
	"go/ast"
	"go/types"
)

// PolicyPurity guards the admission order (DESIGN.md §15): every
// method of exec's admission type — the one place waiters are picked —
// and everything it transitively reaches (over the shared call graph)
// must stay deterministic, because admission decisions feed the
// simulated timeline directly. That code may not:
//
//   - spawn goroutines — a pick that races its own bookkeeping makes
//     admission order schedule-dependent;
//   - pick through map iteration — returning, breaking, or mutating
//     state reached outside the loop from inside a map range makes the
//     chosen query follow Go's randomized map order. The blessed
//     collect-append-then-slices.Sort pattern (simMix) stays allowed.
//
// Wall-clock reads and global rand draws in admission code are
// vclockpurity's findings, like anywhere else in the module.
var PolicyPurity = &Analyzer{
	Name: "policypurity",
	Doc: "admission methods must be deterministic: " +
		"no goroutine spawns, no map-range-ordered picks",
	Run: runPolicyPurity,
}

func runPolicyPurity(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(), "internal/exec") {
		return nil
	}
	g := pass.CallGraph()
	var roots []*types.Func
	for _, fn := range g.Funcs() {
		if recvBaseName(fn) == "admission" {
			roots = append(roots, fn)
		}
	}
	reach := g.Reach(roots...)
	for _, fn := range g.Funcs() {
		if !reach[fn] {
			continue
		}
		if decl := g.Decl(fn); decl != nil && decl.Body != nil {
			checkPolicyBody(pass, decl)
		}
	}
	return nil
}

// checkPolicyBody scans one admission-reachable function for the
// banned constructs.
func checkPolicyBody(pass *Pass, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"goroutine spawned in code reachable from the admission order: admission decisions "+
					"must be deterministic — racing bookkeeping makes admission order "+
					"schedule-dependent (DESIGN.md §16)")
		case *ast.RangeStmt:
			if isMapRange(pass.TypesInfo, n) {
				checkPolicyMapRange(pass, decl, n)
			}
		}
		return true
	})
}

// checkPolicyMapRange flags order-dependent picks inside a map range:
// returning from the loop, breaking out of it, or assigning to state
// declared outside it (except the blessed collect-then-sort append).
func checkPolicyMapRange(pass *Pass, enclosing *ast.FuncDecl, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if n != rng && isMapRange(pass.TypesInfo, n) {
				return false // nested map range gets its own visit
			}
		case *ast.ReturnStmt:
			pass.Reportf(n.Pos(),
				"return from inside a map range in admission code: a first-match pick follows "+
					"Go's randomized map order — collect candidates, slices.Sort them, then pick "+
					"(DESIGN.md §16)")
		case *ast.BranchStmt:
			if n.Tok.String() == "break" {
				pass.Reportf(n.Pos(),
					"break out of a map range in admission code: an early-exit pick follows Go's "+
						"randomized map order — collect candidates, slices.Sort them, then pick "+
						"(DESIGN.md §16)")
			}
		case *ast.AssignStmt:
			checkPolicyOuterAssign(pass, enclosing, rng, n)
		}
		return true
	})
}

func checkPolicyOuterAssign(pass *Pass, enclosing *ast.FuncDecl, rng *ast.RangeStmt, assign *ast.AssignStmt) {
	for i, lhs := range assign.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			if obj, ok = pass.TypesInfo.Defs[id].(*types.Var); !ok {
				continue
			}
		}
		if declaredWithin(pass, obj, rng) {
			continue // loop-local scratch
		}
		// The blessed pattern: append into a collector that is sorted
		// after the loop.
		if i < len(assign.Rhs) || len(assign.Rhs) == 1 {
			ri := i
			if len(assign.Rhs) == 1 {
				ri = 0
			}
			if call, okC := ast.Unparen(assign.Rhs[ri]).(*ast.CallExpr); okC &&
				isBuiltinAppend(pass.TypesInfo, call) && sortedAfter(pass, enclosing, rng, obj) {
				continue
			}
		}
		pass.Reportf(assign.Pos(),
			"assignment to %q (declared outside the loop) inside a map range in admission code: "+
				"the final value depends on Go's randomized map order — collect into a slice, "+
				"slices.Sort it, then reduce (DESIGN.md §16)", obj.Name())
	}
}

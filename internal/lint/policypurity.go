package lint

import (
	"go/ast"
	"go/types"
)

// PolicyPurity guards the selectable admission order (DESIGN.md §15):
// every implementation of exec.AdmissionPolicy — current and future,
// detected by interface satisfaction rather than a name list — must
// stay deterministic, because policy decisions feed the simulated
// timeline directly. Transitively (over the shared call graph), policy
// methods may not:
//
//   - spawn goroutines — a policy that races its own bookkeeping makes
//     admission order schedule-dependent;
//   - pick through map iteration — returning, breaking, or mutating
//     state reached outside the loop from inside a map range makes the
//     chosen query follow Go's randomized map order. The blessed
//     collect-append-then-slices.Sort pattern (simMix) stays allowed.
//
// Wall-clock reads and global rand draws in policy code are
// vclockpurity's findings, like anywhere else in the module.
var PolicyPurity = &Analyzer{
	Name: "policypurity",
	Doc: "AdmissionPolicy implementations must be deterministic: " +
		"no goroutine spawns, no map-range-ordered picks",
	Run: runPolicyPurity,
}

// policyInterfaces are the scheduling extension points, located by
// declaring-package suffix so fixture packages resolve the same way
// the real tree does.
var policyInterfaces = []struct{ pkgSuffix, name string }{
	{"internal/exec", "AdmissionPolicy"},
}

func runPolicyPurity(pass *Pass) error {
	ifaces := visiblePolicyInterfaces(pass.Pkg)
	if len(ifaces) == 0 {
		return nil
	}
	impls := policyImpls(pass.Pkg, ifaces)
	if len(impls) == 0 {
		return nil
	}
	g := pass.CallGraph()
	var roots []*types.Func
	for _, fn := range g.Funcs() {
		if impls[recvBaseName(fn)] {
			roots = append(roots, fn)
		}
	}
	reach := g.Reach(roots...)
	for _, fn := range g.Funcs() {
		if !reach[fn] {
			continue
		}
		decl := g.Decl(fn)
		if decl == nil || decl.Body == nil {
			continue
		}
		checkPolicyBody(pass, decl)
	}
	return nil
}

// visiblePolicyInterfaces resolves the policy interface types
// reachable from this package (declared here or in a direct import).
func visiblePolicyInterfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	candidates := append([]*types.Package{pkg}, pkg.Imports()...)
	for _, want := range policyInterfaces {
		for _, p := range candidates {
			if !pathHasSuffix(p.Path(), want.pkgSuffix) {
				continue
			}
			tn, ok := p.Scope().Lookup(want.name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		}
	}
	return out
}

// policyImpls returns the receiver base names of this package's named
// non-interface types satisfying any policy interface (by value or
// pointer receiver).
func policyImpls(pkg *types.Package, ifaces []*types.Interface) map[string]bool {
	out := make(map[string]bool)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		for _, iface := range ifaces {
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				out[name] = true
				break
			}
		}
	}
	return out
}

// checkPolicyBody scans one policy-reachable function for the banned
// constructs.
func checkPolicyBody(pass *Pass, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"goroutine spawned in code reachable from a scheduling policy: policy decisions "+
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
				"return from inside a map range in policy code: a first-match pick follows "+
					"Go's randomized map order — collect candidates, slices.Sort them, then pick "+
					"(DESIGN.md §16)")
		case *ast.BranchStmt:
			if n.Tok.String() == "break" {
				pass.Reportf(n.Pos(),
					"break out of a map range in policy code: an early-exit pick follows Go's "+
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
			"assignment to %q (declared outside the loop) inside a map range in policy code: "+
				"the final value depends on Go's randomized map order — collect into a slice, "+
				"slices.Sort it, then reduce (DESIGN.md §16)", obj.Name())
	}
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Suite is every xprsvet analyzer, in reporting order.
var Suite = []*Analyzer{
	VclockPurity,
	ObsNoClock,
	MapOrder,
	AtomicMix,
	PoolLifetime,
	PolicyPurity,
	TraceGate,
}

// pathHasSuffix reports whether pkgPath is exactly suffix or ends with
// "/"+suffix (so testdata fixtures under synthetic module roots match
// the same way the real tree does).
func pathHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// calleeFunc resolves the static callee of a call expression: a
// package-level function, a method (including interface methods), or
// nil for calls through function values and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package declaring fn, or
// "" for builtins.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvBaseName returns the name of a method's receiver base type
// ("Real" for func (r *Real) Now()), or "" for plain functions.
func recvBaseName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

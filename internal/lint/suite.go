package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Suite is every xprsvet analyzer, in reporting order. AllowAudit
// must come last: it is a pseudo-analyzer that inspects which allow
// directives the others consumed (RunAnalyzers special-cases it).
var Suite = []*Analyzer{
	VclockPurity,
	ObsNoClock,
	MapOrder,
	AtomicMix,
	PoolLifetime,
	PolicyPurity,
	TraceGate,
	AllowAudit,
}

// governedSuffixes are the import-path suffixes of the vclock-governed
// packages: everything that executes on (or feeds work to) the virtual
// clock, where a single wall-clock read or global-rand draw silently
// breaks the byte-identical-results invariants (TestBatchSweep*,
// TestSubmitMatchesBatch, TestTraceDeterministic).
var governedSuffixes = []string{
	"internal/core",
	"internal/exec",
	"internal/diskmodel",
	"internal/vclock",
	"internal/workload",
}

// moduleRoot is the import path of the facade package, which is also
// governed (stream.go drives deterministic workload sweeps).
const moduleRoot = "xprs"

// governedPackage reports whether pkgPath is subject to the
// virtual-clock purity invariants.
func governedPackage(pkgPath string) bool {
	if pkgPath == moduleRoot {
		return true
	}
	for _, s := range governedSuffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
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

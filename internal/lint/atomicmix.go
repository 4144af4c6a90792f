package lint

import (
	"go/ast"
	"go/types"
)

// AtomicMix bans the sync/atomic function API (atomic.AddInt64(&x.n, 1),
// atomic.LoadUint32, ...) anywhere in the module. A variable reached
// through those functions can also be read or written plainly (x.n++,
// x.n = 0), and that mixed access is a data race the -race matrix only
// catches when the schedule cooperates; the BufferPool hit/miss and
// Report.Frags counters hit exactly this before migrating. Typed
// atomics (atomic.Int64, atomic.Uint64, ...) make a mixed access fail
// to compile, so they are the only form allowed.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "forbid the sync/atomic function API (atomic.AddInt64, ...); typed atomics " +
		"(atomic.Int64) let the type system rule out mixed atomic/plain access",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || funcPkgPath(fn) != "sync/atomic" || recvBaseName(fn) != "" {
				return true // typed-atomic methods are exactly what we want people to use
			}
			pass.Reportf(id.Pos(),
				"atomic.%s: the sync/atomic function API lets the same variable be read or written "+
					"plainly elsewhere, a data race the GOMAXPROCS race matrix can miss (DESIGN.md §11); "+
					"make the variable a typed atomic (atomic.Int64) instead",
				fn.Name())
			return true
		})
	}
	return nil
}

package lint

import (
	"go/ast"
	"go/types"
)

// VclockPurity forbids wall-clock time and global math/rand state
// anywhere in the module. The paper's balance-point arithmetic (§3.1)
// is reproduced on a deterministic virtual clock; results must be
// byte-identical across GOMAXPROCS, batch size and slave count, so the
// only admissible time source is vclock.Clock and the only admissible
// randomness is an explicitly seeded *rand.Rand. The *Real wall-clock
// adapter inside internal/vclock is the one exception; host-timed
// benchmarks live in the separate bench/ module.
var VclockPurity = &Analyzer{
	Name: "vclockpurity",
	Doc: "forbid wall-clock (time.Now/Since/Sleep/Tick/...) and global math/rand " +
		"anywhere in the module; determinism requires vclock.Clock and seeded *rand.Rand",
	Run: runVclockPurity,
}

// wallClockFuncs are the package-level functions of "time" that read or
// wait on the host clock. Types and pure conversions (time.Duration,
// time.ParseDuration) are fine.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// seededRandConstructors are the package-level math/rand (and v2)
// functions that do NOT touch the global generator: they build or wrap
// explicitly seeded sources, which is exactly what determinism wants.
var seededRandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runVclockPurity(pass *Pass) error {
	inVclock := pathHasSuffix(pass.Pkg.Path(), "internal/vclock")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			// The explicit wall-clock adapter: methods on Real and its
			// constructor are the sanctioned bridge to host time.
			if fd, ok := decl.(*ast.FuncDecl); ok && inVclock && isRealAdapter(pass, fd) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() != nil {
					return true // methods (e.g. (*rand.Rand).Intn) are fine
				}
				switch funcPkgPath(fn) {
				case "time":
					if wallClockFuncs[fn.Name()] {
						pass.Reportf(id.Pos(),
							"time.%s reads the wall clock in %s: virtual-clock determinism requires "+
								"all time to flow through vclock.Clock (DESIGN.md §11); take the engine's "+
								"clock or a timestamp argument instead",
							fn.Name(), pass.Pkg.Path())
					}
				case "math/rand", "math/rand/v2":
					if !seededRandConstructors[fn.Name()] {
						pass.Reportf(id.Pos(),
							"%s.%s uses the global random generator in %s: "+
								"results must be byte-identical across runs (DESIGN.md §11); "+
								"plumb a seeded *rand.Rand through instead",
							funcPkgPath(fn), fn.Name(), pass.Pkg.Path())
					}
				}
				return true
			})
		}
	}
	return nil
}

// isRealAdapter reports whether fd is part of internal/vclock's Real
// wall-clock adapter: a method with receiver base type Real, or the
// NewReal constructor.
func isRealAdapter(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Name.Name == "NewReal" && fd.Recv == nil {
		return true
	}
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return ok && recvBaseName(fn) == "Real"
}

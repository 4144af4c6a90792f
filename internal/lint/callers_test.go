package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// keepExported lists the exported names kept although no program calls
// them, each with its reason. A key is package.Name, package.Type.Name
// or a file path from the repository root, which keeps every name the
// file declares. Every key must still name a declaration, so an entry
// goes when its name does.
var keepExported = map[string]string{
	// Test seams: they observe live state a test asserts on.
	"core.Controller.Idle":            "test seam: the controller's idle state",
	"core.Controller.Running":         "test seam: the controller's running set",
	"btree.Tree.Depth":                "test seam: the tree's height after splits",
	"workload.BurstyArrivals.InBurst": "test seam: the arrival process's phase",
	"vclock.Mailbox.Len":              "test seam: the mailbox's queue depth",
	"vclock.Virtual.Counts":           "test seam: parks, timers and signals per run",
	"xprs.System.OpsHandler":          "test seam: the ops routes without a listener",
	"expr.ColEqConst":                 "test seam: builds equality predicates for tests",
	"diskmodel.Config.SeqBandwidth":   "test seam: the paper's 4 × 97 io/s check",
	"storage.Tuple.Concat":            "test seam: the oracle's reference join",
	"exec.Engine.Run":                 "test seam: exec tests run graphs without the facade (bench calls System.Run)",

	// Subjects of bench/'s probes, freed when the benchmark drops them.
	"internal/exec/hashtable.go":      "bench hostage: the row-form hash table",
	"internal/expr/batch.go":          "bench hostage: row-form batch predicates",
	"storage.Relation.PageTuples":     "bench hostage: row page decode",
	"storage.Relation.PageTuplesInto": "bench hostage: row page decode",
	"exec.Temp.Append":                "bench hostage: row appends feed the sort probe",
	"exec.Temp.SetSortProcs":          "bench hostage: called by the sort probe",
	"exec.NewColHashTable":            "bench hostage: the column hash-join probe",
	"exec.ColHashTable.ProbeKey":      "bench hostage: the column hash-join probe",
	"storage.BufferPool.Touch":        "bench hostage: the buffer-pool probe",
	"obs.NewSeries":                   "bench hostage: the series probe",
	"obs.Series.Observe":              "bench hostage: the series probe",
	"xprs.RunServe":                   "bench hostage: bench's replay test compares against it",
	"xprs.ServeOptions":               "bench hostage: RunServe's options",
	"vclock.NewReal":                  "bench hostage: the wall-clock workloads",
	"exec.Report.Results":             "bench hostage: the oracles index it as a map",
}

// stdlibMethods are method names a type declares to satisfy a standard
// library interface; the standard library, not this module, calls them.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
}

// TestExportedNamesHaveCallers fails on an exported function or method
// that no program of the repository calls: no non-test use in the root
// module (its packages, cmd/ and examples/) or in the bench/ module
// resolves to its declaration. Both modules are type-checked with Load,
// so a call of a same-named function or method elsewhere does not count.
// The two loads build distinct objects for the root packages bench/
// imports, so a use matches a declaration by source position. A method
// whose name an interface method carries — one used in either load, or
// a stdlibMethods name — is exempt: a call through the interface
// resolves to the interface's method, not to it. Unexported dead code
// is staticcheck's.
func TestExportedNamesHaveCallers(t *testing.T) {
	root := repoRoot()
	var pkgs []*Package
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		loaded, err := Load(dir, "./...")
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, loaded...)
	}

	type decl struct{ key, name, file, pos string }
	var decls []decl
	declared := map[string]bool{} // every key and file keepExported may name
	used := map[string]bool{}     // declaration positions some use resolves to
	ifaceMethods := map[string]bool{}
	seen := map[string]bool{} // files already walked: bench/ loads the root packages again
	for _, pkg := range pkgs {
		at := func(pos token.Pos) string { return pkg.Fset.Position(pos).String() }
		for _, obj := range pkg.TypesInfo.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
				used[at(fn.Pos())] = true
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceMethods[fn.Name()] = true
				}
			}
		}
		for _, f := range pkg.Syntax {
			path := pkg.Fset.Position(f.Pos()).Filename
			if seen[path] {
				continue
			}
			seen[path] = true
			rel, err := filepath.Rel(root, path)
			if err != nil {
				t.Fatal(err)
			}
			file := filepath.ToSlash(rel)
			declared[file] = true
			name := f.Name.Name
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					key := name + "." + d.Name.Name
					if d.Recv != nil {
						key = name + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					declared[key] = true
					decls = append(decls, decl{key, d.Name.Name, file, at(d.Name.Pos())})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						declared[name+"."+ts.Name.Name] = true
						if st, ok := ts.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									declared[name+"."+ts.Name.Name+"."+n.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	if len(decls) < 100 {
		t.Fatalf("only %d exported functions found under %s: loader regression?", len(decls), root)
	}
	for _, d := range decls {
		if used[d.pos] || ifaceMethods[d.name] || stdlibMethods[d.name] || keepExported[d.key] != "" || keepExported[d.file] != "" {
			continue
		}
		t.Errorf("%s: %s has no caller outside tests: delete it, or add it to keepExported with its reason", d.pos, d.key)
	}
	var stale []string
	for key := range keepExported {
		if !declared[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("keepExported names %s, which is no longer declared: drop the entry", key)
	}
}

// recvName is the type name of a method receiver, T or *T (the module
// declares no generic types).
func recvName(x ast.Expr) string {
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	return x.(*ast.Ident).Name
}

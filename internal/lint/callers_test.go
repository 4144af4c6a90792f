package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
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
	"exec.Engine.Run":                 "bench hostage: the executor workloads",
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
// whose name no program of the repository mentions: the root module's
// packages, cmd/, examples/ and the bench/ module, test files excluded,
// testdata directories skipped as the go tool skips them. Matching is by
// name, so a call of any same-named function or method counts; the
// check catches a name that lost every caller. Unexported dead code is
// staticcheck's.
func TestExportedNamesHaveCallers(t *testing.T) {
	type decl struct{ key, name, file, pos string }
	var decls []decl
	declared := map[string]bool{} // every key and file keepExported may name
	mentions := map[string]bool{} // identifiers outside function names
	fset := token.NewFileSet()
	root := repoRoot()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(rel)
		declared[file] = true
		pkg := f.Name.Name
		funcNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				funcNames[d.Name] = true
				if !d.Name.IsExported() {
					continue
				}
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				declared[key] = true
				decls = append(decls, decl{key, d.Name.Name, file, fset.Position(d.Pos()).String()})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					declared[pkg+"."+ts.Name.Name] = true
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								declared[pkg+"."+ts.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !funcNames[id] {
				mentions[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("only %d exported functions found under %s: walker regression?", len(decls), root)
	}
	for _, d := range decls {
		if mentions[d.name] || stdlibMethods[d.name] || keepExported[d.key] != "" || keepExported[d.file] != "" {
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

package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one fully typechecked package ready for analysis.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// graph is the call graph shared by every pass over this package.
	graph *CallGraph
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") with
// `go list -export -deps -json` in dir, typechecks every package that
// belongs to the enclosing module from source, and resolves every other
// import (the standard library) from its compiled export data in the
// build cache. Test files are not loaded: the invariants guard engine
// code, and tests routinely host-time or randomize on purpose.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}

	// `go list -deps` emits packages in dependency order (a package
	// only after all its imports), so a single forward walk typechecks
	// module packages against already-checked dependencies.
	exports := make(map[string]string)
	fromSource := make(map[string][]string) // import path -> absolute file names
	var order []string
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Module != nil && !p.Standard {
			files := make([]string, len(p.GoFiles))
			for i, f := range p.GoFiles {
				files[i] = filepath.Join(p.Dir, f)
			}
			fromSource[p.ImportPath] = files
			order = append(order, p.ImportPath)
			continue
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	src := &sourceImporter{
		fset:    fset,
		files:   fromSource,
		exports: exports,
		checked: make(map[string]*Package),
	}
	var pkgs []*Package
	for _, path := range order {
		pkg, err := src.check(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list -export -deps -json` in dir and decodes the
// package stream.
func goList(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,Imports,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		listed = append(listed, &p)
	}
	return listed, nil
}

// listExports resolves patterns (plus their dependency closure) to
// compiled export-data files, for typechecking against packages that
// are not analyzed from source — the golden-test harness uses it to
// give fixtures a real standard library.
func listExports(dir string, patterns ...string) (map[string]string, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// sourceImporter typechecks module packages from source and everything
// else from gc export data, satisfying types.Importer for both.
type sourceImporter struct {
	fset    *token.FileSet
	files   map[string][]string // module packages: path -> source files
	exports map[string]string   // everything else: path -> export data file
	checked map[string]*Package
	gc      types.Importer
}

func (s *sourceImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := s.checked[path]; ok {
		return pkg.Types, nil
	}
	if _, ok := s.files[path]; ok {
		pkg, err := s.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if s.gc == nil {
		s.gc = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := s.exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		})
	}
	return s.gc.Import(path)
}

// check parses and typechecks one module package from source.
func (s *sourceImporter) check(path string) (*Package, error) {
	if pkg, ok := s.checked[path]; ok {
		return pkg, nil
	}
	files, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("lint: package %q is not loadable from source", path)
	}
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(s.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		syntax = append(syntax, f)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: s}
	tpkg, err := conf.Check(path, s.fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", path, err)
	}
	pkg := &Package{
		PkgPath:   path,
		Fset:      s.fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}
	s.checked[path] = pkg
	return pkg, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

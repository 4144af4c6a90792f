// Package lint is xprsvet's analyzer suite: seven repo-specific static
// checks that mechanically enforce the determinism and virtual-clock
// invariants the XPRS reproduction's simulation methodology depends on
// (DESIGN.md §11/§16). The framework mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built purely on the standard
// library — go/ast, go/types and `go list -export` — so the module
// stays dependency-free.
//
// There is no suppression directive: a finding is fixed, or the
// analyzer that reported it is made precise.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer is one static check. Run inspects a single package and
// reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer.Run and collects its
// diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg   *Package
	diags *[]Diagnostic
}

// CallGraph returns the package's shared call graph (built lazily once
// per package and reused by every interprocedural analyzer).
func (p *Pass) CallGraph() *CallGraph {
	return p.pkg.callGraph()
}

// callGraph returns the package's call graph, built once on demand.
func (pkg *Package) callGraph() *CallGraph {
	if pkg.graph == nil {
		pkg.graph = NewCallGraph(pkg.Syntax, pkg.TypesInfo)
	}
	return pkg.graph
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				pkg:       pkg,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		if c := strings.Compare(a.Pos.Filename, b.Pos.Filename); c != 0 {
			return c
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line - b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column - b.Pos.Column
		}
		return strings.Compare(a.Analyzer, b.Analyzer)
	})
	return diags, nil
}

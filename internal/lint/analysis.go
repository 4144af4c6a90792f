// Package lint is xprsvet's analyzer suite: four repo-specific static
// checks that mechanically enforce the determinism and virtual-clock
// invariants the XPRS reproduction's simulation methodology depends on
// (DESIGN.md §11). The framework mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built purely on the standard
// library — go/ast, go/types and `go list -export` — so the module
// stays dependency-free.
//
// Suppression: a finding is dropped when the offending line, the line
// above it, or the doc comment of the enclosing function declaration
// carries `//lint:allow <analyzer>`. The escape is for code that is
// deliberately host-timed — never for engine code on the virtual
// clock. Nothing in the module uses it today: host-timed benchmarks
// live in the separate bench/ module.
package lint

import (
	"encoding/json"
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
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name>` suppression comments.
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

	// allow maps filename -> line ranges suppressed per analyzer name,
	// cached on the Package so the allowaudit pass can see which
	// directives any analyzer actually used.
	allow map[string][]*allowRange

	pkg   *Package
	diags *[]Diagnostic
}

// CallGraph returns the package's shared call graph (built lazily once
// per package and reused by every interprocedural analyzer).
func (p *Pass) CallGraph() *CallGraph {
	return p.pkg.callGraph()
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

// allowRange marks lines [from, to] of a file as suppressed for one
// analyzer (or every analyzer when name is "*"). pos is the directive
// comment itself; used records whether any finding was suppressed by
// this range, which the allowaudit pass inspects to flag stale
// directives.
type allowRange struct {
	name     string
	from, to int
	pos      token.Position
	used     bool
}

// AllowDirective is the comment prefix that suppresses a finding.
const AllowDirective = "//lint:allow"

// Reportf records a finding at pos unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	for _, r := range p.allow[position.Filename] {
		if (r.name == p.Analyzer.Name || r.name == "*") && position.Line >= r.from && position.Line <= r.to {
			r.used = true
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// newPass builds a Pass for one analyzer over one loaded package,
// sharing the package's cached allow-directive line ranges.
func newPass(a *Analyzer, pkg *Package, sink *[]Diagnostic) *Pass {
	p := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		allow:     pkg.allows(),
		pkg:       pkg,
		diags:     sink,
	}
	return p
}

// allows returns the package's allow-directive line ranges, computed
// once and cached so every pass shares (and marks usage on) the same
// range records.
func (pkg *Package) allows() map[string][]*allowRange {
	if pkg.allow == nil {
		pkg.allow = pkg.allowRanges()
	}
	return pkg.allow
}

// callGraph returns the package's call graph, built once on demand.
func (pkg *Package) callGraph() *CallGraph {
	if pkg.graph == nil {
		pkg.graph = NewCallGraph(pkg.Syntax, pkg.TypesInfo)
	}
	return pkg.graph
}

// allowRanges scans every comment in the package for allow directives.
// A directive in a function declaration's doc comment covers the whole
// function body; any other directive covers its own line and the next.
func (pkg *Package) allowRanges() map[string][]*allowRange {
	out := make(map[string][]*allowRange)
	for _, f := range pkg.Syntax {
		// Doc-comment directives: cover the entire declaration.
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			for _, c := range directiveComments(doc) {
				for _, name := range parseDirective(c.Text) {
					from := pkg.Fset.Position(decl.Pos()).Line
					to := pkg.Fset.Position(decl.End()).Line
					file := pkg.Fset.Position(decl.Pos()).Filename
					out[file] = append(out[file], &allowRange{
						name: name, from: from, to: to,
						pos: pkg.Fset.Position(c.Pos()),
					})
				}
			}
		}
		// Line directives: cover the directive's line and the line below,
		// so both `stmt //lint:allow x` and a directive on its own line
		// above the statement work.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range parseDirective(c.Text) {
					pos := pkg.Fset.Position(c.Pos())
					out[pos.Filename] = append(out[pos.Filename], &allowRange{
						name: name, from: pos.Line, to: pos.Line + 1,
						pos: pos,
					})
				}
			}
		}
	}
	return out
}

func directiveComments(doc *ast.CommentGroup) []*ast.Comment {
	if doc == nil {
		return nil
	}
	var out []*ast.Comment
	for _, c := range doc.List {
		if len(parseDirective(c.Text)) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// parseDirective extracts analyzer names from one comment's text, e.g.
// `//lint:allow vclockpurity maporder — calibration loop`.
func parseDirective(text string) []string {
	if !strings.HasPrefix(text, AllowDirective) {
		return nil
	}
	rest := strings.TrimPrefix(text, AllowDirective)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // e.g. //lint:allowedthing
	}
	var names []string
	for _, w := range strings.Fields(rest) {
		if w == "—" || w == "-" || strings.HasPrefix(w, "--") {
			break // free-form justification follows
		}
		names = append(names, w)
	}
	return names
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined findings sorted by position. The allowaudit pseudo-analyzer,
// when present, runs last over each package: it inspects which allow
// directives the other analyzers actually consumed, so it cannot run as
// an ordinary Pass.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ran := make(map[string]bool)
	var audit bool
	var checks []*Analyzer
	for _, a := range analyzers {
		if a.Name == AllowAudit.Name {
			audit = true
			continue
		}
		checks = append(checks, a)
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, a := range checks {
			if err := a.Run(newPass(a, pkg, &diags)); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		if audit {
			auditAllows(pkg, ran, &diags)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
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
}

// jsonDiagnostic is the stable machine-readable finding schema emitted
// by `xprsvet -json` for CI annotation tooling.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// DiagnosticsJSON renders findings as a JSON array (always an array —
// `[]`, never null — so downstream parsers need no special case).
func DiagnosticsJSON(diags []Diagnostic) ([]byte, error) {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

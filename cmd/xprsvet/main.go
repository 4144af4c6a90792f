// Command xprsvet runs the repo's determinism analyzer suite
// (internal/lint): vclockpurity, obsnoclock, maporder, atomicmix,
// poollifetime, policypurity, tracegate and allowaudit.
// It supports two modes:
//
// Standalone (what `make lint` runs):
//
//	xprsvet ./...
//	xprsvet -json ./...
//
// loads the named packages with `go list -export`, typechecks them
// from source, runs every analyzer and prints findings as
// file:line:col: message [analyzer], or with -json as a JSON array of
// {file, line, col, analyzer, message} objects for CI annotation.
// Exit status 1 means findings.
//
// Vet-tool protocol:
//
//	go build -o /tmp/xprsvet ./cmd/xprsvet
//	go vet -vettool=/tmp/xprsvet ./...
//
// When invoked by cmd/go, the single positional argument is a
// *.cfg JSON file describing one compilation unit (the unitchecker
// protocol); xprsvet typechecks that unit against the export data the
// go command already built and reports findings on stderr with exit
// status 2, which `go vet` relays per package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"xprs/internal/lint"
)

func main() {
	// cmd/go probes vet tools with `-flags` to learn which options they
	// accept; xprsvet takes none beyond the protocol's own.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	printVersion := flag.String("V", "", "print version and exit (vet-tool protocol)")
	jsonOut := flag.Bool("json", false, "standalone mode: print findings as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xprsvet [package pattern ...]   (default ./...)\n")
		fmt.Fprintf(os.Stderr, "   or: go vet -vettool=$(which xprsvet) ./...\n\nAnalyzers:\n")
		for _, a := range lint.Suite {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *printVersion != "" {
		// cmd/go caches vet results keyed on this line.
		fmt.Println("xprsvet version v1.0.0 buildID=xprsvet-determinism-suite")
		return
	}
	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0]))
	}
	os.Exit(runStandalone(args, *jsonOut))
}

func runStandalone(patterns []string, jsonOut bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xprsvet:", err)
		return 1
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xprsvet:", err)
		return 1
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.Suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xprsvet:", err)
		return 1
	}
	if jsonOut {
		out, err := lint.DiagnosticsJSON(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xprsvet:", err)
			return 1
		}
		os.Stdout.Write(append(out, '\n'))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "xprsvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// unitConfig is the JSON schema cmd/go writes for vet tools (the
// golang.org/x/tools unitchecker protocol). Only the fields xprsvet
// needs are declared.
type unitConfig struct {
	ID          string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// runUnit analyzes one compilation unit under `go vet -vettool=`.
func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xprsvet:", err)
		return 1
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "xprsvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// Test variants arrive as "path [path.test]"; analyze them under
	// their real import path so the governed-package rules apply.
	if i := strings.Index(cfg.ImportPath, " ["); i >= 0 {
		cfg.ImportPath = cfg.ImportPath[:i]
	}
	// The go command expects the facts file regardless of outcome.
	// xprsvet's analyzers are package-local and export no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("xprsvet: no facts\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "xprsvet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var syntax []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xprsvet: %v\n", err)
			return 1
		}
		syntax = append(syntax, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(cfg.ImportPath, fset, syntax, info)
	if err != nil {
		// Let the compiler report type errors; vet tools stay quiet.
		return 0
	}
	pkg := &lint.Package{
		PkgPath:   cfg.ImportPath,
		Fset:      fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}
	diags, err := lint.RunAnalyzers([]*lint.Package{pkg}, lint.Suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xprsvet:", err)
		return 1
	}
	reported := 0
	for _, d := range diags {
		// The invariants guard engine code; tests host-time and
		// randomize on purpose (watchdogs, fuzz seeds), so _test.go
		// findings are dropped — matching standalone mode, which never
		// loads test files.
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			continue
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		reported++
	}
	if reported > 0 {
		return 2
	}
	return 0
}

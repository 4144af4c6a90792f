package lint

// analysistest-style golden harness: fixture packages live under
// testdata/src/<importpath>/, and a trailing comment
//
//	// want `regex`
//
// on a line asserts that exactly one diagnostic matching the regex is
// reported there. Fixtures typecheck for real — imports resolve to
// sibling fixture packages or to the standard library's export data —
// so the analyzers are tested against the same type information they
// see in the tree.

import (
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	stdExportsOnce sync.Once
	stdExportsMap  map[string]string
	stdExportsErr  error
)

// stdExports returns export-data files for the std packages fixtures
// import, resolved once per test binary.
func stdExports(t *testing.T) map[string]string {
	t.Helper()
	stdExportsOnce.Do(func() {
		stdExportsMap, stdExportsErr = listExports(repoRoot(),
			"time", "math/rand", "sync", "sync/atomic", "slices", "sort")
	})
	if stdExportsErr != nil {
		t.Fatalf("resolving std export data: %v", stdExportsErr)
	}
	return stdExportsMap
}

func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return filepath.Join(wd, "..", "..")
}

// loadTestdata typechecks every fixture package under testdata/src and
// returns the ones named by paths.
func loadTestdata(t *testing.T, paths ...string) []*Package {
	t.Helper()
	src := filepath.Join("testdata", "src")
	files := make(map[string][]string)
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(src, dir)
		if err != nil {
			return err
		}
		importPath := filepath.ToSlash(rel)
		abs, err := filepath.Abs(p)
		if err != nil {
			return err
		}
		files[importPath] = append(files[importPath], abs)
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", src, err)
	}
	imp := &sourceImporter{
		fset:    token.NewFileSet(),
		files:   files,
		exports: stdExports(t),
		checked: make(map[string]*Package),
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := imp.check(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)")
var wantLitRE = regexp.MustCompile("`([^`]*)`")

// collectWants scans fixture comments for want assertions.
func collectWants(t *testing.T, pkgs []*Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, lit := range wantLitRE.FindAllStringSubmatch(m[1], -1) {
						re, err := regexp.Compile(lit[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, lit[1], err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// runGolden applies one analyzer to the named fixture packages and
// matches its diagnostics against the want assertions.
func runGolden(t *testing.T, a *Analyzer, paths ...string) {
	t.Helper()
	pkgs := loadTestdata(t, paths...)
	diags, err := RunAnalyzers(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	wants := collectWants(t, pkgs)
	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

func TestVclockPurityGolden(t *testing.T) {
	runGolden(t, VclockPurity,
		"purity/internal/exec", "purity/internal/vclock", "purity/other")
}

func TestObsNoClockGolden(t *testing.T) {
	runGolden(t, ObsNoClock,
		"noclock/user", "noclock/internal/obs", "leafviol/internal/obs")
}

func TestMapOrderGolden(t *testing.T) {
	runGolden(t, MapOrder,
		"maporder/mo", "maporder/internal/core", "maporder/internal/obs")
}

func TestAtomicMixGolden(t *testing.T) {
	runGolden(t, AtomicMix, "atomicmix")
}

func TestPoolLifetimeGolden(t *testing.T) {
	runGolden(t, PoolLifetime, "poollife/pl")
}

func TestPolicyPurityGolden(t *testing.T) {
	runGolden(t, PolicyPurity, "policypurity/internal/exec")
}

func TestTraceGateGolden(t *testing.T) {
	runGolden(t, TraceGate,
		"tracegate/internal/exec", "tracegate/internal/obs")
}

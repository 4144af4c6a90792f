package lint

import (
	"testing"
)

// TestLintCleanTree is the meta-test behind `make lint`: every package
// of the module must produce zero findings from every analyzer, and
// nothing can suppress one. A regression here means someone
// reintroduced a wall-clock read or global-rand draw (in any package,
// storage and cmd/ included), an unsorted map-range feeding a report, a
// clock-touching observability callback, or a sync/atomic function
// call — exactly the bug classes that break the byte-identical
// virtual-clock invariants (DESIGN.md §11).
func TestLintCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list over the whole module")
	}
	pkgs, err := Load(repoRoot(), "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d): loader regression?", len(pkgs))
	}
	diags, err := RunAnalyzers(pkgs, Suite)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("xprsvet found %d violation(s) in the tree; run `make lint` locally", len(diags))
	}
}

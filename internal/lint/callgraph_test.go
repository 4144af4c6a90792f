package lint

import (
	"go/types"
	"testing"
)

// grabFunc finds a declared function or method by name in the graph.
func grabFunc(t *testing.T, g *CallGraph, name string) *types.Func {
	t.Helper()
	for _, fn := range g.Funcs() {
		if fn.Name() == name {
			return fn
		}
	}
	t.Fatalf("function %q not found in call graph", name)
	return nil
}

func TestCallGraphReach(t *testing.T) {
	pkgs := loadTestdata(t, "noclock/user")
	g := pkgs[0].callGraph()

	register := grabFunc(t, g, "register")
	pump := grabFunc(t, g, "pump")
	account := grabFunc(t, g, "account")
	charge := grabFunc(t, g, "chargeCPU")

	if g.Decl(pump) == nil {
		t.Fatal("Decl(pump) = nil, want its FuncDecl")
	}

	// register hands e.pump to an obs API and calls e.account from a
	// closure; both chains (and chargeCPU behind account) are reachable.
	reach := g.Reach(register)
	for _, fn := range []*types.Func{register, pump, account, charge} {
		if !reach[fn] {
			t.Errorf("Reach(register) misses %s", fn.Name())
		}
	}

	// pump is a leaf on the declared-function graph: it reaches only
	// itself (Clock.Sleep is imported, not declared here).
	leaf := g.Reach(pump)
	if !leaf[pump] || leaf[register] || leaf[account] {
		t.Errorf("Reach(pump) = %d funcs incl. self=%v, want only pump", len(leaf), leaf[pump])
	}
}

func TestReacherClassify(t *testing.T) {
	pkgs := loadTestdata(t, "noclock/user", "poollife/pl")

	g := pkgs[0].callGraph()
	r := g.Reacher(clockAPIName)
	if got := r.funcReaches(grabFunc(t, g, "pump"), map[*types.Func]bool{}); got != "vclock.Clock.Sleep" {
		t.Errorf("funcReaches(pump) = %q, want vclock.Clock.Sleep", got)
	}
	if got := r.funcReaches(grabFunc(t, g, "account"), map[*types.Func]bool{}); got != "engine.chargeCPU" {
		t.Errorf("funcReaches(account) = %q, want engine.chargeCPU", got)
	}

	// A package with no clock-adjacent code classifies everything clean,
	// and the memo answers repeat queries identically.
	g2 := pkgs[1].callGraph()
	r2 := g2.Reacher(clockAPIName)
	getBuf := grabFunc(t, g2, "getBuf")
	for range 2 {
		if got := r2.funcReaches(getBuf, map[*types.Func]bool{}); got != "" {
			t.Errorf("funcReaches(getBuf) = %q, want clean", got)
		}
	}
}

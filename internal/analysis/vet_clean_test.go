package analysis

import (
	"go/token"
	"testing"
)

// TestRepoIsVetClean is the suite's one driver: it runs every analyzer
// over every non-test file of the module, fails on any unsuppressed
// finding or type error, and pins the audited //pde:allow inventory.
// Every suppressed finding in the tree is a deliberate, justified
// exception, so a new one (or a lost one) must update the counts here
// and the catalogue in docs/analysis.md. Under -v it logs each
// suppressed finding with its position.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	fset := token.NewFileSet()
	pkgs, _, err := loadClosure(fset, "../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no module packages")
	}
	suite := []*Analyzer{AtomicSwap, Determinism, ErrEnvelope, HotPathAlloc, InfConvention, WireFrame}
	suppressed := map[string]int{}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.PkgPath, e)
		}
		for _, d := range runAnalyzers(suite, fset, p.PkgPath, p.Files, p.Types, p.Info) {
			if d.Suppressed {
				suppressed[d.Analyzer]++
				t.Log(d)
				continue
			}
			t.Errorf("invariant violation: %s", d)
		}
	}

	// The audited allows: scheme's BuildNS wall clock, and the envelope
	// helper's own WriteHeader.
	want := map[string]int{"determinism": 1, "errenvelope": 1}
	for name, n := range want {
		if suppressed[name] != n {
			t.Errorf("%s: %d suppressed findings, want %d (audit the //pde:allow comments and update this test + docs/analysis.md)",
				name, suppressed[name], n)
		}
	}
	for name, n := range suppressed {
		if want[name] == 0 {
			t.Errorf("%s: %d suppressed findings not in the audited inventory", name, n)
		}
	}
}

package analysis

import "testing"

// TestRepoIsVetClean runs the full suite over the real module — the
// same check CI's pde-vet job performs — and pins the audited
// //pde:allow inventory: every suppressed finding in the tree is a
// deliberate, justified exception, so a new one (or a lost one) must
// update the counts here and the catalogue in docs/analysis.md.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, fset, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no module packages")
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.PkgPath, e)
		}
	}

	suppressed := map[string]int{}
	for _, d := range AnalyzePackages(All(), pkgs, fset) {
		if d.Suppressed {
			suppressed[d.Analyzer]++
			continue
		}
		t.Errorf("invariant violation: %s", d)
	}

	// The audited allows: scheme's registry Names() and BuildNS wall
	// clock, and the envelope helper's own WriteHeader.
	want := map[string]int{"determinism": 2, "errenvelope": 1}
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

package scheme

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
)

// TestBuildOnMatchesBuild and TestRegistryNames together guard the one
// registry: exactly three backends, each giving Build and BuildOn the
// same tables.
func TestBuildOnMatchesBuild(t *testing.T) {
	for _, sp := range []Spec{oracleSpec(), rtcSpec(), compactSpec()} {
		inst := mustBuild(t, sp)
		g, err := sp.Normalized().BuildGraph()
		if err != nil {
			t.Fatalf("BuildGraph: %v", err)
		}
		on, err := BuildOn(sp, g)
		if err != nil {
			t.Fatalf("BuildOn(%s): %v", sp.Scheme, err)
		}
		if on.Fingerprint() != inst.Fingerprint() {
			t.Fatalf("scheme %s: BuildOn fingerprint %016x != Build %016x",
				on.Scheme(), on.Fingerprint(), inst.Fingerprint())
		}
	}
}

func TestBuildOnRejectsUnknownScheme(t *testing.T) {
	sp := oracleSpec()
	g, err := sp.Normalized().BuildGraph()
	if err != nil {
		t.Fatalf("BuildGraph: %v", err)
	}
	sp.Scheme = "quantum"
	if _, err := BuildOn(sp, g); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("err = %v, want unknown scheme", err)
	}
	if _, err := BuildOn(Spec{}, g); err == nil {
		t.Fatal("BuildOn must validate the spec")
	}
}

func TestOracleUpdateTopologyChangeRebuilds(t *testing.T) {
	sp := oracleSpec()
	inst := mustBuild(t, sp)
	g2 := drawn(t, inst.Graph(), graph.ChangeInsert, 1, 1)
	ni, st, err := Update(inst, g2)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if st.Path != "rebuild" || st.Damage != 1 {
		t.Fatalf("stats = %+v, want rebuild at damage 1", st)
	}
	cold, err := BuildOn(sp, g2)
	if err != nil {
		t.Fatalf("BuildOn: %v", err)
	}
	if ni.Fingerprint() != cold.Fingerprint() {
		t.Fatalf("rebuild fingerprint %016x != cold build %016x", ni.Fingerprint(), cold.Fingerprint())
	}
}

// TestOracleUpdateKeepsPrebuiltRecipe: a prebuilt oracle instance's
// recipe is its spec. NewOracleInstance refuses a result built under any
// other params (APSP tables under a partial h=σ=4 spec, sources on every
// 2nd node, SkipSetup alone), so an update can never rebuild something
// else than what it serves. A result built from the spec's own params is
// accepted and updated under them on every path — a reweight (delta) and
// an insertion (rebuild) alike — so the update equals a cold build of
// those params on the new graph, and the delta's copied rows are the cold
// compile's.
func TestOracleUpdateKeepsPrebuiltRecipe(t *testing.T) {
	sp := oracleSpec()
	sp.H, sp.Sigma = 4, 4
	g, err := sp.Normalized().BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	own := sp.Params(g.N())
	everyOther := make([]bool, g.N())
	for v := 0; v < g.N(); v += 2 {
		everyOther[v] = true
	}
	skip := own
	skip.SkipSetup = true
	for name, p := range map[string]core.Params{
		"apsp":        core.APSPParams(g.N(), sp.Eps),
		"every-other": {IsSource: everyOther, H: 3, Sigma: 4, Epsilon: sp.Eps},
		"skip-setup":  skip,
	} {
		res, err := core.Run(g, p, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewOracleInstance(sp, g, res, 0); err == nil || !strings.Contains(err.Error(), "other params") {
			t.Errorf("%s: NewOracleInstance of a result built under other params = %v, want a refusal", name, err)
		}
	}

	res, err := core.Run(g, own, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewOracleInstance(sp, g, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		g2   *graph.Graph
	}{
		{"delta", drawn(t, g, graph.ChangeNudge, 1, 1)},
		{"rebuild", drawn(t, g, graph.ChangeInsert, 1, 1)},
	} {
		ni, st, err := Update(inst, c.g2)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if st.Path != c.path {
			t.Fatalf("path = %q, want %q", st.Path, c.path)
		}
		got := ni.(*OracleInstance)
		cold, err := core.Run(c.g2, own, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != cold.Fingerprint() {
			t.Fatalf("%s: fingerprint %016x != cold build %016x", c.path, got.Fingerprint(), cold.Fingerprint())
		}
		if !reflect.DeepEqual(got.O, oracle.Compile(cold)) {
			t.Fatalf("%s: updated tables differ from the cold build's", c.path)
		}
	}
}

// drawn applies one batch of kind from graph.RandomChanges, drawn from a
// seeded rng, to g.
func drawn(t *testing.T, g *graph.Graph, kind graph.ChangeKind, k int, seed int64) *graph.Graph {
	t.Helper()
	g2, _, err := g.ApplyChanges(graph.RandomChanges(g, kind, k, rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

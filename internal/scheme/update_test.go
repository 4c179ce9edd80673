package scheme

import (
	"strings"
	"testing"

	"pde/internal/graph"
)

// mutateWeights bumps one edge weight by +1, preferring an odd-weight
// edge: an odd w never crosses a multiple of any 2^i when incremented,
// so with eps=1 only rounding instance 0 is affected and the damage
// stays deterministically small.
func mutateWeights(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var u, v int
	var w graph.Weight
	got := false
	g.Edges(func(eu, ev int, ew graph.Weight, _ int32) {
		if !got || (w%2 == 0 && ew%2 == 1) {
			u, v, w = eu, ev, ew
			got = true
		}
	})
	ng, sum, err := g.ApplyChanges([]graph.Change{{Op: graph.OpReweight, U: u, V: v, W: w + 1}})
	if err != nil {
		t.Fatalf("ApplyChanges: %v", err)
	}
	if sum.TopologyChanged {
		t.Fatal("weight-only batch reported topology change")
	}
	return ng
}

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

func TestOracleUpdateDeltaMatchesColdBuild(t *testing.T) {
	sp := oracleSpec()
	inst := mustBuild(t, sp)
	g2 := mutateWeights(t, inst.Graph())
	ni, st, err := Update(inst, g2)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if st.Path != "delta" {
		t.Fatalf("path = %q (stats %+v), want delta", st.Path, st)
	}
	if st.InstancesReused == 0 || st.InstancesRebuilt == 0 ||
		st.InstancesReused+st.InstancesRebuilt != st.InstancesTotal {
		t.Fatalf("implausible delta stats %+v", st)
	}
	cold, err := BuildOn(sp, g2)
	if err != nil {
		t.Fatalf("BuildOn: %v", err)
	}
	if ni.Fingerprint() != cold.Fingerprint() {
		t.Fatalf("delta fingerprint %016x != cold build %016x", ni.Fingerprint(), cold.Fingerprint())
	}
	if ni.Fingerprint() == inst.Fingerprint() {
		t.Fatal("update changed the graph but not the fingerprint")
	}
	if ni.Graph() != g2 {
		t.Fatal("updated instance must serve the updated graph")
	}
}

func TestOracleUpdateTopologyChangeRebuilds(t *testing.T) {
	sp := oracleSpec()
	inst := mustBuild(t, sp)
	g := inst.Graph()
	// Insert a fresh edge between the two lowest-degree non-adjacent nodes.
	var changes []graph.Change
	for u := 0; u < g.N() && changes == nil; u++ {
		for v := u + 1; v < g.N(); v++ {
			if _, ok := g.EdgeBetween(u, v); !ok {
				changes = []graph.Change{{Op: graph.OpInsert, U: u, V: v, W: 2}}
				break
			}
		}
	}
	if changes == nil {
		t.Skip("graph is complete")
	}
	g2, _, err := g.ApplyChanges(changes)
	if err != nil {
		t.Fatalf("ApplyChanges: %v", err)
	}
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

func TestUpdateFallbackForNonUpdatableSchemes(t *testing.T) {
	for _, sp := range []Spec{rtcSpec(), compactSpec()} {
		inst := mustBuild(t, sp)
		g2 := mutateWeights(t, inst.Graph())
		ni, st, err := Update(inst, g2)
		if err != nil {
			t.Fatalf("Update(%s): %v", sp.Scheme, err)
		}
		if st.Path != "rebuild" {
			t.Fatalf("scheme %s: path = %q, want rebuild fallback", sp.Scheme, st.Path)
		}
		cold, err := BuildOn(sp, g2)
		if err != nil {
			t.Fatalf("BuildOn(%s): %v", sp.Scheme, err)
		}
		if ni.Fingerprint() != cold.Fingerprint() {
			t.Fatalf("scheme %s: fallback fingerprint %016x != cold build %016x",
				sp.Scheme, ni.Fingerprint(), cold.Fingerprint())
		}
	}
}

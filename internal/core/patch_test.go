package core

import (
	"math/rand"
	"strings"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

func patchTestGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Generate("community", 48, 32, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

func patchTestParams(n int) Params {
	p := APSPParams(n, 0.5)
	p.H = 12
	p.Sigma = 8
	return p
}

func TestPatchParallelMatchesSequential(t *testing.T) {
	g := patchTestGraph(t, 13)
	p := patchTestParams(g.N())
	prev, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ng := drawn(t, g, graph.ChangeNudge, 1, rand.New(rand.NewSource(13)))
	seq, _, err := Patch(ng, congest.Config{}, prev)
	if err != nil {
		t.Fatalf("sequential Patch: %v", err)
	}
	par, _, err := Patch(ng, congest.Config{Parallel: true, Workers: 4}, prev)
	if err != nil {
		t.Fatalf("parallel Patch: %v", err)
	}
	if seq.Fingerprint() != par.Fingerprint() {
		t.Fatalf("parallel patch fingerprint %016x != sequential %016x", par.Fingerprint(), seq.Fingerprint())
	}
	sameAccounting(t, "parallel patch", seq, par)
}

func TestPatchRejectsStructuralDrift(t *testing.T) {
	g := patchTestGraph(t, 17)
	p := patchTestParams(g.N())
	prev, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, _, err := Patch(g, congest.Config{}, nil); err == nil || !strings.Contains(err.Error(), "previous result") {
		t.Fatalf("nil prev: err = %v", err)
	}
	smaller := drawn(t, g, graph.ChangeDelete, 1, rand.New(rand.NewSource(17)))
	if _, _, err := Patch(smaller, congest.Config{}, prev); err == nil || !strings.Contains(err.Error(), "another structure") {
		t.Fatalf("edge-count drift: err = %v", err)
	}
	other := patchTestGraph(t, 18)
	if other.N() == g.N() {
		// Different node count via a trivial path graph instead.
		b := graph.NewBuilder(g.N() + 1)
		for i := 0; i < g.N(); i++ {
			b.AddEdge(i, i+1, 1)
		}
		other = b.MustBuild()
	}
	if _, _, err := Patch(other, congest.Config{}, prev); err == nil || !strings.Contains(err.Error(), "another structure") {
		t.Fatalf("node-count drift: err = %v", err)
	}
}

// TestBuildRefusesAnotherStructure: a 6-node path and a rewire of it,
// with the same n, m, degrees and weights but other edges. Deciding reuse
// by edge id alone took every instance of the one as the other's, and
// served its lists.
func TestBuildRefusesAnotherStructure(t *testing.T) {
	b := graph.NewBuilder(6)
	for v := 1; v < 6; v++ {
		b.AddEdge(v-1, v, graph.Weight(v))
	}
	g1 := b.MustBuild()
	g2 := drawn(t, g1, graph.ChangeRewire, 1, rand.New(rand.NewSource(1)))
	if g2.M() != g1.M() {
		t.Fatalf("the rewire has %d edges, the path %d", g2.M(), g1.M())
	}
	p := patchTestParams(g1.N())
	prev, err := Run(g1, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Build(g2, p, congest.Config{}, prev); err == nil || !strings.Contains(err.Error(), "another structure") {
		t.Fatalf("Build: err = %v", err)
	}
	if _, _, err := Patch(g2, congest.Config{}, prev); err == nil || !strings.Contains(err.Error(), "another structure") {
		t.Fatalf("Patch: err = %v", err)
	}
	for i, a := range AffectedInstances(g2, prev) {
		if !a {
			t.Fatalf("AffectedInstances: instance %d reusable across a structure change", i)
		}
	}
}

// TestRunReportsAllRebuilt pins the PatchStats contract on the plain
// Run path: no prev means nothing reused.
func TestPatchStatsOnFreshRun(t *testing.T) {
	g := patchTestGraph(t, 19)
	res, st, err := Build(g, patchTestParams(g.N()), congest.Config{}, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if st.InstancesReused != 0 || st.InstancesRebuilt != st.InstancesTotal || st.InstancesTotal != len(res.Instances) {
		t.Fatalf("fresh run stats = %+v for %d instances", st, len(res.Instances))
	}
}

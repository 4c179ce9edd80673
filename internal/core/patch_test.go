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

// firstEdge returns some edge of g, deterministically.
func firstEdge(g *graph.Graph) (int, int, graph.Weight) {
	var u, v int
	var w graph.Weight
	done := false
	g.Edges(func(eu, ev int, ew graph.Weight, _ int32) {
		if !done {
			u, v, w = eu, ev, ew
			done = true
		}
	})
	return u, v, w
}

func TestPatchBitIdenticalToRunOnReweight(t *testing.T) {
	g := patchTestGraph(t, 7)
	p := patchTestParams(g.N())
	cfg := congest.Config{}
	prev, err := Run(g, p, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	type pair struct{ u, v int }
	var all []pair
	g.Edges(func(u, v int, _ graph.Weight, _ int32) { all = append(all, pair{u, v}) })
	cur := g
	for step := 0; step < 4; step++ {
		e := all[rng.Intn(len(all))]
		ng, sum, err := cur.ApplyChanges([]graph.Change{
			{Op: graph.OpReweight, U: e.u, V: e.v, W: graph.Weight(1 + rng.Intn(32))},
		})
		if err != nil {
			t.Fatalf("step %d: ApplyChanges: %v", step, err)
		}
		if sum.TopologyChanged {
			t.Fatalf("step %d: reweight reported topology change", step)
		}
		affected := AffectedInstances(ng, prev)
		got, st, err := Patch(ng, cfg, prev)
		if err != nil {
			t.Fatalf("step %d: Patch: %v", step, err)
		}
		want, err := Run(ng, p, cfg)
		if err != nil {
			t.Fatalf("step %d: Run on updated graph: %v", step, err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("step %d: patched fingerprint %016x != fresh %016x", step, got.Fingerprint(), want.Fingerprint())
		}
		if st.Instances != len(want.Instances) || st.Rebuilt+st.Reused != st.Instances {
			t.Fatalf("step %d: inconsistent stats %+v for %d instances", step, st, len(want.Instances))
		}
		wantRebuilt := 0
		for i, a := range affected {
			if a {
				wantRebuilt++
				continue
			}
			if got.Instances[i] != prev.Instances[i] {
				t.Fatalf("step %d: unaffected instance %d was not pointer-reused", step, i)
			}
		}
		if st.Rebuilt != wantRebuilt {
			t.Fatalf("step %d: Rebuilt = %d, AffectedInstances says %d", step, st.Rebuilt, wantRebuilt)
		}
		if d := st.Damage(); d < 0 || d > 1 {
			t.Fatalf("step %d: damage %v out of [0,1]", step, d)
		}
		cur, prev = ng, got
	}
}

func TestPatchAcrossMaxWeightGrowth(t *testing.T) {
	g := patchTestGraph(t, 11)
	p := patchTestParams(g.N())
	cfg := congest.Config{}
	prev, err := Run(g, p, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Quadruple the heaviest edge: the hierarchy gets deeper, the new
	// tail instances must be built, and the patch must still match a
	// fresh run exactly.
	u, v, _ := firstEdge(g)
	ng, _, err := g.ApplyChanges([]graph.Change{{Op: graph.OpReweight, U: u, V: v, W: g.MaxWeight() * 4}})
	if err != nil {
		t.Fatalf("ApplyChanges: %v", err)
	}
	got, st, err := Patch(ng, cfg, prev)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	want, err := Run(ng, p, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("patched fingerprint %016x != fresh %016x", got.Fingerprint(), want.Fingerprint())
	}
	if st.Instances <= len(prev.Instances) {
		t.Fatalf("hierarchy did not deepen: %d -> %d instances", len(prev.Instances), st.Instances)
	}
}

// TestPatchAtMaximalDamage: incrementing every edge's weight moves the
// lengths of every instance whose base is below the new w_max, so at
// most the top instance survives. Nothing selects a different path for
// damage this high, and the result is still a fresh Run's.
func TestPatchAtMaximalDamage(t *testing.T) {
	g := patchTestGraph(t, 23)
	p := patchTestParams(g.N())
	cfg := congest.Config{}
	prev, err := Run(g, p, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var all []graph.Change
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		all = append(all, graph.Change{Op: graph.OpReweight, U: u, V: v, W: w + 1})
	})
	ng, _, err := g.ApplyChanges(all)
	if err != nil {
		t.Fatalf("ApplyChanges: %v", err)
	}
	got, st, err := Patch(ng, cfg, prev)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	want, err := Run(ng, p, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("patched fingerprint %016x != fresh %016x", got.Fingerprint(), want.Fingerprint())
	}
	if st.Instances != len(want.Instances) || st.Rebuilt+st.Reused != st.Instances {
		t.Fatalf("inconsistent stats %+v for %d instances", st, len(want.Instances))
	}
	if st.Reused > 1 || st.Damage() <= 0.5 {
		t.Fatalf("every weight changed, yet stats are %+v (damage %.2f)", st, st.Damage())
	}
}

func TestPatchParallelMatchesSequential(t *testing.T) {
	g := patchTestGraph(t, 13)
	p := patchTestParams(g.N())
	prev, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	u, v, w := firstEdge(g)
	ng, _, err := g.ApplyChanges([]graph.Change{{Op: graph.OpReweight, U: u, V: v, W: w + 5}})
	if err != nil {
		t.Fatalf("ApplyChanges: %v", err)
	}
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
	u, v, _ := firstEdge(g)
	smaller, _, err := g.ApplyChanges([]graph.Change{{Op: graph.OpDelete, U: u, V: v}})
	if err != nil {
		t.Fatalf("ApplyChanges: %v", err)
	}
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

// TestBuildRefusesAnotherStructure: two 6-node paths with the same n, m
// and weights but other edges. Deciding reuse by edge id alone took every
// instance of the one as the other's, and served its lists.
func TestBuildRefusesAnotherStructure(t *testing.T) {
	path := func(order ...int) *graph.Graph {
		b := graph.NewBuilder(len(order))
		for i := 1; i < len(order); i++ {
			b.AddEdge(order[i-1], order[i], graph.Weight(i))
		}
		return b.MustBuild()
	}
	g1, g2 := path(0, 1, 2, 3, 4, 5), path(0, 2, 1, 3, 5, 4)
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
	if st.Reused != 0 || st.Rebuilt != st.Instances || st.Instances != len(res.Instances) {
		t.Fatalf("fresh run stats = %+v for %d instances", st, len(res.Instances))
	}
}

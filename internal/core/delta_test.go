package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// deltaGraph is churn-mixed's shape at a test's size: a road grid with
// weights up to 1024 under a partial (h, σ) build whose sources are
// every third node, so that h′ = 18 leaves many edges out of the low
// instances.
func deltaGraph(t *testing.T, n int) (*graph.Graph, Params) {
	t.Helper()
	g, err := graph.Generate("roadgrid", n, 1024, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	src := make([]bool, g.N())
	for v := 0; v < g.N(); v += 3 {
		src[v] = true
	}
	return g, Params{IsSource: src, H: 4, Sigma: 4, Epsilon: 0.5}
}

// randomReweights returns k reweights of distinct seeded random edges to weights
// in [1, g.MaxWeight()], so that w_max can fall but never rise.
func randomReweights(g *graph.Graph, rng *rand.Rand, k int) []graph.Change {
	type edge struct{ u, v int }
	var all []edge
	g.Edges(func(u, v int, _ graph.Weight, _ int32) { all = append(all, edge{u, v}) })
	batch := make([]graph.Change, k)
	for j, id := range rng.Perm(len(all))[:k] {
		e := all[id]
		batch[j] = graph.Change{Op: graph.OpReweight, U: e.u, V: e.v, W: 1 + graph.Weight(rng.Int63n(int64(g.MaxWeight())))}
	}
	return batch
}

// excludedReweight returns a one-edge reweight that changes the
// subdivided length of the edge only in instances where it is longer
// than h′ both before and after: detection leaves such an edge out, so
// with lengths clamped at h′+1 no instance is re-detected.
func excludedReweight(t *testing.T, g *graph.Graph, p Params) []graph.Change {
	t.Helper()
	hp := hPrimeFor(p.H, p.Epsilon)
	num := numInstances(g.MaxWeight(), p.Epsilon)
	length := func(w graph.Weight, i int) int {
		return max(1, int(math.Ceil(float64(w)/math.Pow(1+p.Epsilon, float64(i)))))
	}
	var found []graph.Change
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		if found != nil || w+1 > g.MaxWeight() {
			return
		}
		differs := false
		for i := 0; i < num; i++ {
			a, b := length(w, i), length(w+1, i)
			if a != b && (a <= hp || b <= hp) {
				return
			}
			differs = differs || a != b
		}
		if differs {
			found = []graph.Change{{Op: graph.OpReweight, U: u, V: v, W: w + 1}}
		}
	})
	if found == nil {
		t.Fatal("no edge changes length only beyond h′")
	}
	return found
}

// wantMoved is RowMoved's specification: every row when there is no
// comparable previous result (none, or a hierarchy of another depth),
// otherwise the rows at which some instance's list differs from prev's.
func wantMoved(res, prev *Result) []bool {
	moved := make([]bool, len(res.Lists))
	for v := range moved {
		moved[v] = prev == nil || len(prev.Instances) != len(res.Instances)
		for i := 0; !moved[v] && i < len(res.Instances); i++ {
			moved[v] = !slices.Equal(res.Instances[i].Det.Lists[v], prev.Instances[i].Det.Lists[v])
		}
	}
	return moved
}

// TestDeltaBuildMatchesColdRun chains delta builds over seeded
// weight-only batches, a batch that deepens the hierarchy and one that
// makes it shallower again, a batch that only touches instances where the
// edge is longer than h′, and a topology change (built without prev, as
// the serving layer does). Every result's lists and table equal a cold
// Run's, and RowMoved is exactly the set of rows with a differing
// instance list.
func TestDeltaBuildMatchesColdRun(t *testing.T) {
	g, p := deltaGraph(t, 144)
	cfg := congest.Config{}
	prev, err := Run(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range prev.Lists {
		if !prev.RowMoved(v) {
			t.Fatalf("cold build: row %d not marked moved", v)
		}
	}
	u0, v0, w0 := firstEdge(g)
	rng := rand.New(rand.NewSource(41))
	steps := []struct {
		name  string
		batch func(g *graph.Graph) []graph.Change
	}{
		{"random-1", func(g *graph.Graph) []graph.Change { return randomReweights(g, rng, 4) }},
		{"random-2", func(g *graph.Graph) []graph.Change { return randomReweights(g, rng, 4) }},
		{"deeper", func(g *graph.Graph) []graph.Change {
			return []graph.Change{{Op: graph.OpReweight, U: u0, V: v0, W: 4 * g.MaxWeight()}}
		}},
		{"shallower", func(*graph.Graph) []graph.Change {
			return []graph.Change{{Op: graph.OpReweight, U: u0, V: v0, W: w0}}
		}},
		{"beyond-h-prime", func(g *graph.Graph) []graph.Change { return excludedReweight(t, g, p) }},
		{"random-3", func(g *graph.Graph) []graph.Change { return randomReweights(g, rng, 4) }},
		{"insert", func(g *graph.Graph) []graph.Change {
			for u := 0; u < g.N(); u++ {
				for v := u + 2; v < g.N(); v++ {
					if _, ok := g.EdgeBetween(u, v); !ok {
						return []graph.Change{{Op: graph.OpInsert, U: u, V: v, W: 7}}
					}
				}
			}
			t.Fatal("graph is complete")
			return nil
		}},
		{"random-4", func(g *graph.Graph) []graph.Change { return randomReweights(g, rng, 4) }},
	}
	partial := false
	for _, st := range steps {
		ng, sum, err := g.ApplyChanges(st.batch(g))
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		from := prev
		if sum.TopologyChanged {
			from = nil
		}
		res, ps, err := Build(ng, p, cfg, from)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		cold, err := Run(ng, p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !reflect.DeepEqual(res.Lists, cold.Lists) {
			t.Fatalf("%s: delta lists differ from a cold Run's", st.name)
		}
		if !reflect.DeepEqual(res.Table, cold.Table) {
			t.Fatalf("%s: delta table differs from a cold Run's", st.name)
		}
		if res.Fingerprint() != cold.Fingerprint() {
			t.Fatalf("%s: delta fingerprint %016x != cold %016x", st.name, res.Fingerprint(), cold.Fingerprint())
		}
		want := wantMoved(res, from)
		moved := 0
		for v, w := range want {
			if res.RowMoved(v) != w {
				t.Fatalf("%s: RowMoved(%d) = %v, want %v", st.name, v, res.RowMoved(v), w)
			}
			if w {
				moved++
			}
		}
		t.Logf("%s: %d of %d instances re-detected (%d repaired), %d of %d rows moved", st.name, ps.Rebuilt, ps.Instances, ps.Repaired, moved, len(want))
		switch st.name {
		case "beyond-h-prime":
			if ps.Rebuilt != 0 || moved != 0 {
				t.Fatalf("%s: %d instances re-detected and %d rows moved, want none and none", st.name, ps.Rebuilt, moved)
			}
		case "deeper", "shallower", "insert":
			if moved != len(want) {
				t.Fatalf("%s: %d of %d rows moved, want all", st.name, moved, len(want))
			}
		}
		partial = partial || (moved > 0 && moved < len(want))
		g, prev = ng, res
	}
	if !partial {
		t.Fatal("no step moved some rows but not all: the chain does not exercise the row reuse")
	}
}

// TestAllocsPerRunDeltaBuild holds a delta build that moves few rows to
// the allocations of its re-detected instances, the marks, the table
// pages and the rows it computes: a row it does not move is prev's
// slice, not a copy, and so is a repaired instance's list that did not
// change. The budget is a constant below the number of unmoved rows, so
// one allocation per unmoved row fails it.
func TestAllocsPerRunDeltaBuild(t *testing.T) {
	// 375 measured: 13 of 576 rows moved, on paged tables and with one
	// allocation per changed list of a repaired instance (297 when the
	// table was one run of columns and a repair copied its lists into
	// one slab).
	const budget = 400
	g, p := deltaGraph(t, 576)
	p.SkipSetup = true // the setup's BFS tree and aggregate are per node
	prev, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := g.ApplyChanges(randomReweights(g, rand.New(rand.NewSource(5)), 4))
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		if res, _, err = Build(ng, p, congest.Config{}, prev); err != nil {
			t.Fatal(err)
		}
	})
	unmoved := 0
	for v := range res.Lists {
		if !res.RowMoved(v) {
			unmoved++
		}
	}
	t.Logf("%.0f allocations per delta build, %d of %d rows unmoved", allocs, unmoved, len(res.Lists))
	if unmoved <= budget {
		t.Fatalf("only %d rows unmoved: the budget of %d would not notice a copy per row", unmoved, budget)
	}
	if allocs > budget {
		t.Fatalf("a delta build allocated %.0f times, budget %d", allocs, budget)
	}
}

// TestAllocsPerRunDeltaChainRetains: twenty delta builds in a row, each
// from the last, keep no earlier generation alive — a result holds no
// pointer to the one it was built from, and a shared row is an
// allocation of its own — so the live heap after the chain is one
// generation's, the retainBudget of TestAllocsPerRunBuild.
func TestAllocsPerRunDeltaChainRetains(t *testing.T) {
	const retainBudget = 1 << 20
	g, p := deltaGraph(t, 400)
	before := liveHeap()
	res, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for range 20 {
		ng, _, err := g.ApplyChanges(randomReweights(g, rng, 4))
		if err != nil {
			t.Fatal(err)
		}
		if res, _, err = Build(ng, p, congest.Config{}, res); err != nil {
			t.Fatal(err)
		}
		g = ng
	}
	after := liveHeap()
	runtime.KeepAlive(res)
	runtime.KeepAlive(g)
	t.Logf("live heap %d -> %d bytes after 20 delta builds", before, after)
	if after > before+retainBudget {
		t.Fatalf("20 delta builds left %d bytes live, budget %d: is an earlier generation retained?", after-before, retainBudget)
	}
}

// TestDeltaBuildReusesSetup holds the setup reuse to its three cases and
// to a prev that has no setup: reweights that avoid w_max reuse prev's
// tree and w_max and run no setup round; lowering the edges at w_max and
// raising an edge above it re-run the aggregate over prev's tree (the
// raise deepens the hierarchy); a prev built under SkipSetup has no tree,
// so the build makes one. Every result is fingerprint-equal to a cold
// Run, and its setup — tree and aggregate, rounds, messages and bits —
// is the cold run's, except that a reused aggregate's is prev's.
func TestDeltaBuildReusesSetup(t *testing.T) {
	g, p := deltaGraph(t, 144)
	cfg := congest.Config{}
	prev, err := Run(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxW := g.MaxWeight()
	var atMax, belowMax []graph.Change
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		switch {
		case w == maxW:
			atMax = append(atMax, graph.Change{Op: graph.OpReweight, U: u, V: v, W: maxW / 2})
		case w > 1 && w < maxW-1 && len(belowMax) < 4:
			belowMax = append(belowMax, graph.Change{Op: graph.OpReweight, U: u, V: v, W: w + 1 - 2*(w%2)})
		}
	})
	u0, v0, _ := firstEdge(g)
	skip := p
	skip.SkipSetup = true
	skipPrev, err := Run(g, skip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		prev      *Result
		batch     []graph.Change
		aggregate bool // the aggregate re-runs
		tree      bool // the tree is built
	}{
		{"avoids-max", prev, belowMax, false, false},
		{"lowers-max", prev, atMax, true, false},
		{"raises-max", prev, []graph.Change{{Op: graph.OpReweight, U: u0, V: v0, W: 4 * maxW}}, true, false},
		{"skip-setup-prev", skipPrev, belowMax, true, true},
	} {
		ng, _, err := g.ApplyChanges(c.batch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, ps, err := Build(ng, p, cfg, c.prev)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cold, err := Run(ng, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fingerprint() != cold.Fingerprint() || res.SetupRounds != cold.SetupRounds {
			t.Fatalf("%s: fingerprint %016x, setup rounds %d; cold %016x, %d", c.name, res.Fingerprint(), res.SetupRounds, cold.Fingerprint(), cold.SetupRounds)
		}
		if res.setup.tree != cold.setup.tree {
			t.Fatalf("%s: tree cost %+v, cold %+v", c.name, res.setup.tree, cold.setup.tree)
		}
		var want PatchStats
		if c.aggregate {
			if res.setup.agg != cold.setup.agg {
				t.Fatalf("%s: aggregate cost %+v, cold %+v", c.name, res.setup.agg, cold.setup.agg)
			}
			want.SetupRounds, want.SetupMessages = res.setup.agg.rounds, res.setup.agg.messages
		} else if res.setup.agg != c.prev.setup.agg {
			t.Fatalf("%s: aggregate cost %+v, prev's %+v", c.name, res.setup.agg, c.prev.setup.agg)
		}
		if c.tree {
			want.SetupRounds, want.SetupMessages = res.SetupRounds, res.setup.tree.messages+res.setup.agg.messages
		} else if res.setup.bfs != c.prev.setup.bfs {
			t.Fatalf("%s: the tree was built again", c.name)
		}
		if ps.SetupRounds != want.SetupRounds || ps.SetupMessages != want.SetupMessages || (c.aggregate && ps.SetupRounds == 0) {
			t.Fatalf("%s: this build's setup ran %d rounds and %d messages, want %d and %d", c.name, ps.SetupRounds, ps.SetupMessages, want.SetupRounds, want.SetupMessages)
		}
		switch c.name {
		case "lowers-max":
			if ng.MaxWeight() == maxW {
				t.Fatalf("%s: w_max did not move", c.name)
			}
		case "raises-max":
			if len(res.Instances) == len(prev.Instances) {
				t.Fatalf("%s: the hierarchy kept its depth %d", c.name, len(res.Instances))
			}
		}
	}
}

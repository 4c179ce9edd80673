package core

import (
	"math/rand"
	"runtime"
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

// TestAllocsPerRunDeltaBuild holds a delta build that moves few rows to
// the allocations of its re-detected instances, the marks, the table
// pages and the rows it computes: a row it does not move is prev's
// slice, not a copy, and so is a repaired instance's list that did not
// change. The budget is a constant below the number of unmoved rows, so
// one allocation per unmoved row fails it.
func TestAllocsPerRunDeltaBuild(t *testing.T) {
	// 386 measured: 13 of 576 rows moved, on paged tables and with two
	// allocations per page a repair lays out again (375 with one per
	// changed list of a repaired instance, 297 when the table was one run
	// of columns and a repair copied its lists into one slab).
	const budget = 400
	g, p := deltaGraph(t, 576)
	p.SkipSetup = true // the setup's BFS tree and aggregate are per node
	prev, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ng := drawn(t, g, graph.ChangeReweight, 4, rand.New(rand.NewSource(5)))
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
// allocation of its own — so the live heap after the chain is about one
// generation's, within 1 MiB.
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
		ng := drawn(t, g, graph.ChangeReweight, 4, rng)
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
	var atMax, belowMax, raise []graph.Change
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		if raise == nil {
			raise = []graph.Change{{Op: graph.OpReweight, U: u, V: v, W: 4 * maxW}}
		}
		switch {
		case w == maxW:
			atMax = append(atMax, graph.Change{Op: graph.OpReweight, U: u, V: v, W: maxW / 2})
		case w > 1 && w < maxW-1 && len(belowMax) < 4:
			belowMax = append(belowMax, graph.Change{Op: graph.OpReweight, U: u, V: v, W: w + 1 - 2*(w%2)})
		}
	})
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
		{"raises-max", prev, raise, true, false},
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
		if *res.setup.tree != *cold.setup.tree {
			t.Fatalf("%s: tree cost %+v, cold %+v", c.name, res.setup.tree, cold.setup.tree)
		}
		var want PatchStats
		if c.aggregate {
			if *res.setup.agg != *cold.setup.agg {
				t.Fatalf("%s: aggregate cost %+v, cold %+v", c.name, res.setup.agg, cold.setup.agg)
			}
			want.SetupRounds, want.SetupMessages = res.setup.agg.ActiveRounds, res.setup.agg.Messages
		} else if res.setup.agg != c.prev.setup.agg {
			t.Fatalf("%s: aggregate cost %+v, prev's %+v", c.name, res.setup.agg, c.prev.setup.agg)
		}
		if c.tree {
			want.SetupRounds, want.SetupMessages = res.SetupRounds, res.setup.tree.Messages+res.setup.agg.Messages
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

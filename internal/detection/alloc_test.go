package detection

import (
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// weightInstance is the first rounding instance of a partial build on the
// named topology, the shape the build benchmarks spend their time on:
// every edge subdivided into its weight (≤ 64), h' = 144, σ = 16, every
// third node a source, the message cap on.
func weightInstance(tb testing.TB, topology string, n int, seed int64) (*graph.Graph, Params) {
	tb.Helper()
	g, err := graph.Generate(topology, n, 64, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	lengths := make([]int32, g.M())
	g.Edges(func(_, _ int, w graph.Weight, id int32) { lengths[id] = int32(w) })
	return g, Params{IsSource: everyKth(g.N(), 3), H: 144, Sigma: 16, Lengths: lengths, CapMessages: true}
}

// allocInstance is build-dense's instance at a quarter of its size.
func allocInstance(t *testing.T) (*graph.Graph, Params) {
	return weightInstance(t, "community", 128, 9)
}

// TestAllocsPerRunDetection holds the arena layout: one sequential Run on
// a fresh Arena allocates 879 times for these 128 nodes and 8 572 relay
// cells. Eleven of those are detection's — the arena's three slabs, the
// node states, their edges, the procs, the shared configuration, and the
// Result with its three slices and one slab of entries — and the rest the
// engine's (per node: its out slots, its inbox, its back ports). When
// every list grew one append at a time and Init made three slices per
// edge this run allocated 48 791 times, and 1 385 times when Init made
// two slabs per node. The budget leaves no room for an allocation per
// node: 128 more fail it.
func TestAllocsPerRunDetection(t *testing.T) {
	const budget = 950
	g, p := allocInstance(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(g, p, congest.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per run", allocs)
	if allocs > budget {
		t.Fatalf("detection.Run allocated %.0f times, budget %d", allocs, budget)
	}
}

// TestAllocsPerRunWarmArena: a second Run on a used Arena finds its three
// slabs large enough and makes none of them again. What it still
// allocates is the run's own (states, edges, procs, the Result) and the
// engine's.
func TestAllocsPerRunWarmArena(t *testing.T) {
	g, p := allocInstance(t)
	cold := testing.AllocsPerRun(3, func() {
		if _, err := Run(g, p, congest.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	var a Arena
	warm := testing.AllocsPerRun(3, func() { // AllocsPerRun's warm-up call fills a
		if _, err := a.Run(g, p, congest.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per run on a fresh arena, %.0f on a used one", cold, warm)
	if warm > cold-3 {
		t.Fatalf("a used arena saved %.0f allocations of %.0f, want its 3 slabs", cold-warm, cold)
	}
}

package detection

import (
	"math/rand"
	"reflect"
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
	return g, Params{IsSource: everyKth(g.N(), 3), H: 144, Sigma: 16, Base: 1, CapMessages: true}
}

// allocInstance is build-dense's instance at a quarter of its size.
func allocInstance(t *testing.T) (*graph.Graph, Params) {
	return weightInstance(t, "community", 128, 9)
}

// TestAllocsPerRunDetection holds the arena layout: one sequential Run on
// a fresh Arena allocates 18 times for these 128 nodes and 8 572 relay
// cells, whatever n and the cell count: the Arena, its slabs (cells, keys,
// Via windows, node states, their lines, procs), the engine's (contexts,
// send and receive slots, worklist, bitmap), and what the run hands back
// (the Result with its pages, a slab of keys and a slab of int32s, the
// Metrics). When every list grew one append at a time
// and Init made three slices per edge this run allocated 48 791 times,
// 1 385 times when Init made two slabs per node, and 879 while the engine
// made its contexts, out slots, inboxes and back ports per node and run.
// The budget leaves no room for an allocation per node or per round.
func TestAllocsPerRunDetection(t *testing.T) {
	const budget = 25
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

// TestAllocsPerRunWarmArena: a second Run on a used Arena finds all of its
// storage — the engine's included — large enough and makes none of it
// again. What it still allocates is what the Result holds: the Result, its
// pages, the slab of their keys, one slab of int32s (SelfEmits, then each
// page's offsets and Vias) and the Metrics.
func TestAllocsPerRunWarmArena(t *testing.T) {
	const held = 5
	g, p := allocInstance(t)
	cold := testing.AllocsPerRun(3, func() {
		if _, err := Run(g, p, congest.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	var a Arena
	warm := testing.AllocsPerRun(3, func() { // AllocsPerRun's warm-up call fills a
		if _, err := a.Run(g, p, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per run on a fresh arena, %.0f on a used one", cold, warm)
	if warm > held {
		t.Fatalf("a used arena allocated %.0f times per run (%.0f fresh), want only the %d the Result holds", warm, cold, held)
	}
}

// TestArenaReuse: one Arena — and the engine in it — runs instances of
// different graphs, σ and schedulers in turn, and every Result equals a
// fresh Run's: lists, Via, self emissions and metrics.
func TestArenaReuse(t *testing.T) {
	dense, denseP := weightInstance(t, "community", 128, 9)
	sparse, sparseP := weightInstance(t, "roadgrid", 96, 4)
	small := graph.RandomConnected(40, 0.1, 8, rand.New(rand.NewSource(5)))
	apsp := Params{IsSource: everyKth(40, 1), H: 40, Sigma: 40, CapMessages: true}
	fifo := Params{IsSource: everyKth(40, 2), H: 12, Sigma: 6, Scheduling: FIFO}
	runs := []struct {
		g *graph.Graph
		p Params
	}{{dense, denseP}, {sparse, sparseP}, {small, apsp}, {small, fifo}, {dense, denseP}, {small, apsp}, {sparse, sparseP}}
	var a Arena
	for i, r := range runs {
		want, err := Run(r.g, r.p, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Run(r.g, r.p, 0)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d on a used arena differs from a fresh Run", i)
		}
	}
}

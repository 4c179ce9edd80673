package detection

import (
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// TestAllocsPerRunDetection holds the slab layout: one sequential Run on
// the shape of the build-dense benchmark's first rounding instance
// (community graph, every edge subdivided into its weight, h' = 144,
// σ = 16, every third node a source). Before the slabs, when every list
// grew one append at a time and Init made three slices per edge, this run
// allocated 48 791 times; the budget is a quarter of that. What remains is
// per node (Init's slabs, the output list) and the engine's own.
func TestAllocsPerRunDetection(t *testing.T) {
	const parentAllocs = 48791
	g, err := graph.Generate("community", 128, 64, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]int32, g.M())
	g.Edges(func(_, _ int, w graph.Weight, id int32) { lengths[id] = int32(w) })
	p := Params{IsSource: everyKth(g.N(), 3), H: 144, Sigma: 16, Lengths: lengths, CapMessages: true}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(g, p, congest.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per run", allocs)
	if allocs > parentAllocs/4 {
		t.Fatalf("detection.Run allocated %.0f times, budget %d (a quarter of the %d before the slabs)", allocs, parentAllocs/4, parentAllocs)
	}
}

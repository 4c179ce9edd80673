package core

import (
	"testing"

	"pde/internal/graph"
)

// TestSkeletonOverlay pins the overlay's three rules on hand-built lists:
// only mutual detections become edges, the weight is the larger rounded-up
// estimate (at least 1), and an entry for a node outside the skeleton is
// an error rather than a silent edge to overlay node 0.
func TestSkeletonOverlay(t *testing.T) {
	skel := []int32{1, 3, 4}
	index := map[int32]int{1: 0, 3: 1, 4: 2}
	lists := make([][]Estimate, 5)
	lists[1] = []Estimate{{Src: 1}, {Src: 3, Dist: 2.2}, {Src: 4, Dist: 9}}
	lists[3] = []Estimate{{Src: 1, Dist: 3.5}, {Src: 3}}
	lists[4] = []Estimate{{Src: 4}, {Src: 3, Dist: 0.2}} // 4 never detected 1; 3 never detected 4
	g, err := (&Result{Lists: lists}).SkeletonOverlay(skel, index)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 1 {
		t.Fatalf("overlay has %d nodes, %d edges; want 3 nodes and the one mutual pair", g.N(), g.M())
	}
	if e, ok := g.EdgeBetween(0, 1); !ok || e.W != graph.Weight(4) {
		t.Fatalf("edge {1,3} = %+v (%v), want weight ceil(max(2.2, 3.5)) = 4", e, ok)
	}

	lists[3] = append(lists[3], Estimate{Src: 2, Dist: 1})
	if _, err := (&Result{Lists: lists}).SkeletonOverlay(skel, index); err == nil {
		t.Fatal("an entry for non-skeleton node 2 was accepted")
	}
}

package core

import (
	"math"
	"math/rand"
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

// TestPotential compares the Lemma 4.10 combination with a brute-force
// minimum on random lists and tails (unreachable tails, entries outside
// the index, exact ties), then pins its two edges by hand: an all-+Inf
// tail has no argmin, and a finite tie goes to the smaller node id.
func TestPotential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		index := make(map[int32]int, k)
		tail := make([]float64, k)
		for i := range tail {
			index[int32(2*i)] = i // odd ids are outside the skeleton
			tail[i] = float64(rng.Intn(4))
			if rng.Intn(3) == 0 {
				tail[i] = math.Inf(1)
			}
		}
		var list []Estimate
		for src := int32(2*k - 1); src >= 0; src-- { // descending: ties must not go to the first seen
			if rng.Intn(4) > 0 {
				list = append(list, Estimate{Src: src, Dist: float64(rng.Intn(4))})
			}
		}
		wantBest, wantArg := math.Inf(1), int32(-1)
		for _, e := range list {
			i, ok := index[e.Src]
			if !ok || math.IsInf(tail[i], 1) {
				continue
			}
			if v := e.Dist + tail[i]; v < wantBest || (v == wantBest && e.Src < wantArg) {
				wantBest, wantArg = v, e.Src
			}
		}
		best, arg := (&Result{Lists: [][]Estimate{list}}).Potential(0, index, tail)
		if best != wantBest || arg != wantArg {
			t.Fatalf("trial %d: Potential = (%v, %d), brute force (%v, %d); list %+v tail %v", trial, best, arg, wantBest, wantArg, list, tail)
		}
	}

	r := &Result{Lists: [][]Estimate{{{Src: 7, Dist: 1}, {Src: 4, Dist: 2}, {Src: 9, Dist: 0.5}}}}
	index := map[int32]int{4: 0, 7: 1, 9: 2}
	inf := math.Inf(1)
	if best, arg := r.Potential(0, index, []float64{inf, inf, inf}); !math.IsInf(best, 1) || arg != -1 {
		t.Fatalf("all-unreachable tail: (%v, %d), want (+Inf, -1)", best, arg)
	}
	if best, arg := r.Potential(0, index, []float64{3, 4, inf}); best != 5 || arg != 4 {
		t.Fatalf("tie 1+4 = 2+3: (%v, %d), want (5, 4)", best, arg)
	}
}

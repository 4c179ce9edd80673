package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) over randomly generated graphs.

func randomGraphFor(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(40)
	p := 0.05 + rng.Float64()*0.2
	maxW := Weight(1 + rng.Intn(50))
	return RandomConnected(n, p, maxW, rng)
}

func TestPropertyTriangleInequality(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraphFor(seed)
		ap := AllPairs(g)
		n := g.N()
		rng := rand.New(rand.NewSource(seed + 1))
		for trial := 0; trial < 30; trial++ {
			u, v, w := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if ap.Dist(u, w) > ap.Dist(u, v)+ap.Dist(v, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDistanceSymmetryAndIdentity(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraphFor(seed)
		ap := AllPairs(g)
		for u := 0; u < g.N(); u++ {
			if ap.Dist(u, u) != 0 || ap.Hops(u, u) != 0 {
				return false
			}
			for v := 0; v < g.N(); v++ {
				if ap.Dist(u, v) != ap.Dist(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHopDistanceLowerBoundsShortestPathHops(t *testing.T) {
	// hd(v,w) <= h_{v,w}: the minimum-hop count over shortest weighted
	// paths can never beat the unconstrained hop distance (§2.2).
	prop := func(seed int64) bool {
		g := randomGraphFor(seed)
		ap := AllPairs(g)
		for u := 0; u < g.N(); u++ {
			bfs := hopDist(g, u)
			for v := 0; v < g.N(); v++ {
				if bfs[v] > ap.Hops(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEdgeWeightUpperBoundsDistance(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraphFor(seed)
		ap := AllPairs(g)
		ok := true
		g.Edges(func(u, v int, w Weight, _ int32) {
			if ap.Dist(u, v) > w {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

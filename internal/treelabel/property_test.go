package treelabel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pde/internal/graph"
)

// Property-based verification: on arbitrary random trees, interval labels
// route correctly between arbitrary pairs, and the intervals partition
// exactly.

func TestPropertyTreeRoutingDelivers(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := graph.RandomTree(n, 5, rng)
		root := rng.Intn(n)
		sp := graph.Dijkstra(g, root)
		parent := map[int]int{root: -1}
		for v := 0; v < n; v++ {
			if v != root {
				parent[v] = int(sp.Parent[v])
			}
		}
		lab, err := build(parent, root)
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			path, err := lab.Route(u, lab.Labels[v])
			if err != nil || path[len(path)-1] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIntervalsPartition(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := graph.RandomTree(n, 3, rng)
		sp := graph.Dijkstra(g, 0)
		parent := map[int]int{0: -1}
		for v := 1; v < n; v++ {
			parent[v] = int(sp.Parent[v])
		}
		lab, err := build(parent, 0)
		if err != nil {
			return false
		}
		// Preorder numbers are a permutation of [0, n).
		seen := make([]bool, n)
		for _, l := range lab.Labels {
			if l.Pre < 0 || int(l.Pre) >= n || seen[l.Pre] {
				return false
			}
			seen[l.Pre] = true
			if l.Size < 1 {
				return false
			}
		}
		// Root's interval covers everything.
		if lab.Labels[0] != (Label{Pre: 0, Size: int32(n)}) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

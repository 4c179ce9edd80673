package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// families lists every generator with a fixed small configuration, used to
// assert the invariants all scenario graphs must satisfy: connectivity,
// the declared node count and determinism in the seed.
func families(n int, seed int64) map[string]func() *Graph {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
	rows := 1
	for rows*rows < n {
		rows++
	}
	return map[string]func() *Graph{
		"random":    func() *Graph { return RandomConnected(n, 6.0/float64(n), 16, rng()) },
		"geometric": func() *Graph { return Geometric(n, 0.3, 16, rng()) },
		"grid":      func() *Graph { return Grid(rows, (n+rows-1)/rows, 16, rng()) },
		"ring":      func() *Graph { return Ring(n, 16, rng()) },
		"internet":  func() *Graph { return Internet(n, 20, rng()) },
		"tree":      func() *Graph { return RandomTree(n, 16, rng()) },
		"powerlaw":  func() *Graph { return BarabasiAlbert(n, 3, 16, rng()) },
		"community": func() *Graph { return Community(n, 4, 0.3, 0.01, 16, rng()) },
		"roadgrid":  func() *Graph { return RoadGrid(rows, (n+rows-1)/rows, 0.3, 16, rng()) },
	}
}

func TestGeneratorFamiliesConnectedAndDeterministic(t *testing.T) {
	for _, n := range []int{8, 33, 64} {
		for name, build := range families(n, int64(n)) {
			g := build()
			if name != "grid" && name != "roadgrid" && g.N() != n {
				t.Errorf("%s n=%d: generated %d nodes", name, n, g.N())
			}
			if !g.Connected() {
				t.Errorf("%s n=%d: not connected", name, n)
			}
			if w := g.MaxWeight(); w < 1 || w > 20 {
				t.Errorf("%s n=%d: max weight %d outside [1, 20]", name, n, w)
			}
			if !reflect.DeepEqual(g, build()) {
				t.Errorf("%s n=%d: same seed produced different graphs", name, n)
			}
		}
	}
}

func TestBarabasiAlbertHeavyTail(t *testing.T) {
	n := 300
	g := BarabasiAlbert(n, 2, 8, rand.New(rand.NewSource(7)))
	maxDeg, sumDeg := 0, 0
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sumDeg) / float64(n)
	// Preferential attachment produces hubs far above the mean degree;
	// a G(n, p) graph with this density almost never has a 4x outlier.
	if float64(maxDeg) < 4*avg {
		t.Errorf("max degree %d not heavy-tailed vs average %.1f", maxDeg, avg)
	}
	// m=2 attachments per node bound the edge count.
	if g.M() > 2*n {
		t.Errorf("m=%d exceeds attachment budget %d", g.M(), 2*n)
	}
}

func TestCommunityClustering(t *testing.T) {
	n, k := 120, 4
	g := Community(n, k, 0.4, 0.005, 16, rand.New(rand.NewSource(9)))
	intra, inter := 0, 0
	g.Edges(func(u, v int, _ Weight, _ int32) {
		if u%k == v%k {
			intra++
		} else {
			inter++
		}
	})
	// pIn/pOut = 80, but inter pairs outnumber intra pairs ~3:1 and the
	// connectivity tree adds a few cross links; 5x is a safe planted gap.
	if intra < 5*inter {
		t.Errorf("intra=%d inter=%d: no planted community structure", intra, inter)
	}
}

func TestRoadGridObstacles(t *testing.T) {
	rows, cols := 12, 12
	full := Grid(rows, cols, 16, rand.New(rand.NewSource(3)))
	road := RoadGrid(rows, cols, 0.35, 16, rand.New(rand.NewSource(3)))
	if road.N() != rows*cols {
		t.Fatalf("road grid has %d nodes, want %d", road.N(), rows*cols)
	}
	if road.M() >= full.M() {
		t.Errorf("obstacles removed nothing: %d edges vs full grid's %d", road.M(), full.M())
	}
	if !road.Connected() {
		t.Error("road grid not connected after obstacle pass")
	}
	// Every edge must be a real grid segment (unit L1 distance).
	road.Edges(func(u, v int, _ Weight, _ int32) {
		ur, uc := u/cols, u%cols
		vr, vc := v/cols, v%cols
		if abs(ur-vr)+abs(uc-vc) != 1 {
			t.Errorf("edge {%d,%d} is not a grid segment", u, v)
		}
	})
	// Zero obstacle fraction reproduces the full grid topology.
	if g0 := RoadGrid(rows, cols, 0, 16, rand.New(rand.NewSource(3))); g0.M() != full.M() {
		t.Errorf("obstacleFrac=0 produced %d edges, want %d", g0.M(), full.M())
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

package graph

import (
	"math/rand"
	"testing"
)

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name string
		edit func(b *Builder)
	}{
		{"self-loop", func(b *Builder) { b.AddEdge(1, 1, 5) }},
		{"out-of-range-low", func(b *Builder) { b.AddEdge(-1, 0, 5) }},
		{"out-of-range-high", func(b *Builder) { b.AddEdge(0, 4, 5) }},
		{"zero-weight", func(b *Builder) { b.AddEdge(0, 1, 0) }},
		{"negative-weight", func(b *Builder) { b.AddEdge(0, 1, -2) }},
		{"duplicate", func(b *Builder) { b.AddEdge(0, 1, 1).AddEdge(1, 0, 2) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(4)
			tc.edit(b)
			if _, err := b.Build(); err == nil {
				t.Fatalf("Build() succeeded, want error")
			}
		})
	}
}

func TestBuilderFaultSticksAcrossChain(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0, 1).AddEdge(0, 1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected sticky error from earlier bad edge")
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewBuilder(4).
		AddEdge(0, 1, 3).
		AddEdge(1, 2, 4).
		AddEdge(2, 3, 5).
		AddEdge(0, 3, 100).
		MustBuild()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d, want 4, 4", g.N(), g.M())
	}
	if g.MaxWeight() != 100 {
		t.Fatalf("MaxWeight=%d, want 100", g.MaxWeight())
	}
	if g.Degree(0) != 2 || g.Degree(2) != 2 {
		t.Fatalf("unexpected degrees %d, %d", g.Degree(0), g.Degree(2))
	}
	e, ok := g.EdgeBetween(3, 0)
	if !ok || e.W != 100 || e.To != 0 {
		t.Fatalf("EdgeBetween(3,0) = %+v, %v", e, ok)
	}
	if _, ok := g.EdgeBetween(0, 2); ok {
		t.Fatal("EdgeBetween(0,2) should not exist")
	}
	if !g.Connected() {
		t.Fatal("graph should be connected")
	}
	// Both directions share the edge id.
	e01, _ := g.EdgeBetween(0, 1)
	e10, _ := g.EdgeBetween(1, 0)
	if e01.ID != e10.ID {
		t.Fatalf("edge ids differ across directions: %d vs %d", e01.ID, e10.ID)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := NewBuilder(3).AddEdge(0, 1, 1).AddEdge(1, 2, 2).MustBuild()
	var count int
	var total Weight
	g.Edges(func(u, v int, w Weight, id int32) {
		if u >= v {
			t.Fatalf("Edges yielded u=%d >= v=%d", u, v)
		}
		count++
		total += w
	})
	if count != 2 || total != 3 {
		t.Fatalf("count=%d total=%d, want 2, 3", count, total)
	}
}

func TestConnectedEdgeCases(t *testing.T) {
	if g := NewBuilder(0).MustBuild(); !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
	if g := NewBuilder(1).MustBuild(); !g.Connected() {
		t.Fatal("single node should count as connected")
	}
	if g := NewBuilder(2).MustBuild(); g.Connected() {
		t.Fatal("two isolated nodes are not connected")
	}
}

func TestDijkstraSmall(t *testing.T) {
	// 0 --3-- 1 --4-- 2, plus a heavy shortcut 0--2 of weight 100 and a
	// parallel light path 0-3-2 with total weight 7 but 2 hops.
	g := NewBuilder(4).
		AddEdge(0, 1, 3).
		AddEdge(1, 2, 4).
		AddEdge(0, 2, 100).
		AddEdge(0, 3, 3).
		AddEdge(3, 2, 4).
		MustBuild()
	s := Dijkstra(g, 0)
	if s.Dist[2] != 7 {
		t.Fatalf("dist(0,2)=%d, want 7", s.Dist[2])
	}
	if s.Hops[2] != 2 {
		t.Fatalf("hops(0,2)=%d, want 2", s.Hops[2])
	}
}

func TestDijkstraPrefersFewerHopsOnTies(t *testing.T) {
	// Two shortest paths of weight 10: direct edge (1 hop) and 2-hop path.
	g := NewBuilder(3).
		AddEdge(0, 2, 10).
		AddEdge(0, 1, 5).
		AddEdge(1, 2, 5).
		MustBuild()
	s := Dijkstra(g, 0)
	if s.Dist[2] != 10 || s.Hops[2] != 1 {
		t.Fatalf("dist=%d hops=%d, want 10, 1", s.Dist[2], s.Hops[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewBuilder(3).AddEdge(0, 1, 1).MustBuild()
	s := Dijkstra(g, 0)
	if s.Dist[2] != Infinity || s.Hops[2] != -1 || s.Parent[2] != -1 {
		t.Fatalf("unreachable node: dist=%d hops=%d parent=%d", s.Dist[2], s.Hops[2], s.Parent[2])
	}
}

func TestDijkstraParentsFormShortestPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomConnected(40, 0.1, 50, rng)
	s := Dijkstra(g, 0)
	for v := 0; v < g.N(); v++ {
		if v == 0 {
			continue
		}
		// Walk parents back to the source, summing weights.
		var total Weight
		hops := int32(0)
		for cur := v; cur != 0; {
			p := int(s.Parent[cur])
			e, ok := g.EdgeBetween(p, cur)
			if !ok {
				t.Fatalf("parent edge {%d,%d} missing", p, cur)
			}
			total += e.W
			hops++
			cur = p
		}
		if total != s.Dist[v] {
			t.Fatalf("parent path weight %d != dist %d for node %d", total, s.Dist[v], v)
		}
		if hops != s.Hops[v] {
			t.Fatalf("parent path hops %d != hops %d for node %d", hops, s.Hops[v], v)
		}
	}
}

func TestBFSMatchesUnitWeightedDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomConnected(50, 0.08, 1, rng)
	bfs := BFS(g, 5)
	dij := Dijkstra(g, 5)
	for v := range bfs {
		if Weight(bfs[v]) != dij.Dist[v] {
			t.Fatalf("node %d: bfs=%d dijkstra=%d", v, bfs[v], dij.Dist[v])
		}
	}
}

func TestAllPairsSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomConnected(30, 0.15, 20, rng)
	ap := AllPairs(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if ap.Dist(u, v) != ap.Dist(v, u) {
				t.Fatalf("asymmetric distance (%d,%d): %d vs %d", u, v, ap.Dist(u, v), ap.Dist(v, u))
			}
			if ap.Hops(u, v) != ap.Hops(v, u) {
				t.Fatalf("asymmetric hops (%d,%d)", u, v)
			}
		}
	}
}

func TestDiameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Path(5, 1, rng) // unit path: D = WD = SPD = 4
	d, wd, spd := DiametersFrom(g, AllPairs(g))
	if d != 4 || wd != 4 || spd != 4 {
		t.Fatalf("path diameters = %d, %d, %d, want 4, 4, 4", d, wd, spd)
	}
	if hd := HopDiameter(g); hd != 4 {
		t.Fatalf("HopDiameter = %d, want 4", hd)
	}
	// Disconnected.
	g2 := NewBuilder(3).AddEdge(0, 1, 1).MustBuild()
	if hd := HopDiameter(g2); hd != -1 {
		t.Fatalf("HopDiameter of disconnected graph = %d, want -1", hd)
	}
	d2, wd2, spd2 := DiametersFrom(g2, AllPairs(g2))
	if d2 != -1 || wd2 != Infinity || spd2 != -1 {
		t.Fatalf("DiametersFrom of disconnected graph = %d, %d, %d", d2, wd2, spd2)
	}
}

func TestCliqueHopVsWeightedSeparation(t *testing.T) {
	// In a weighted clique, hop diameter is 1 but shortest weighted paths
	// can have many hops: the paper's motivating phenomenon (§1).
	rng := rand.New(rand.NewSource(2))
	g := Clique(30, 1000, rng)
	d, _, spd := DiametersFrom(g, AllPairs(g))
	if d != 1 {
		t.Fatalf("clique hop diameter = %d, want 1", d)
	}
	if spd < 2 {
		t.Fatalf("SPD = %d; expected > 1 in a random weighted clique", spd)
	}
}

func TestGeneratorsConnectedAndSized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tests := []struct {
		name string
		g    *Graph
		n    int
	}{
		{"random", RandomConnected(40, 0.05, 100, rng), 40},
		{"geometric", Geometric(40, 0.3, 100, rng), 40},
		{"grid", Grid(5, 8, 10, rng), 40},
		{"torus", Torus(5, 8, 10, rng), 40},
		{"ring", Ring(40, 10, rng), 40},
		{"path", Path(40, 10, rng), 40},
		{"star", Star(40, 10, rng), 40},
		{"clique", Clique(12, 10, rng), 12},
		{"dumbbell", Dumbbell(10, 5, 10, rng), 24},
		{"internet", Internet(60, 100, rng), 60},
		{"tree", RandomTree(40, 10, rng), 40},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n {
				t.Fatalf("N=%d, want %d", tc.g.N(), tc.n)
			}
			if !tc.g.Connected() {
				t.Fatal("generator output is not connected")
			}
			if tc.g.MaxWeight() < 1 {
				t.Fatal("generator produced empty or weightless graph")
			}
		})
	}
}

func TestRandomTreeHasExactlyNMinus1Edges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 2; n <= 40; n += 7 {
		g := RandomTree(n, 5, rng)
		if g.M() != n-1 {
			t.Fatalf("tree on %d nodes has %d edges", n, g.M())
		}
	}
}

func TestGeneratorDeterminismBySeed(t *testing.T) {
	a := RandomConnected(30, 0.1, 50, rand.New(rand.NewSource(5)))
	b := RandomConnected(30, 0.1, 50, rand.New(rand.NewSource(5)))
	if a.M() != b.M() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", a.M(), b.M())
	}
	sumW := func(g *Graph) Weight {
		var s Weight
		g.Edges(func(_, _ int, w Weight, _ int32) { s += w })
		return s
	}
	if sumW(a) != sumW(b) {
		t.Fatal("same seed produced different edge weights")
	}
}

func TestFigure1Structure(t *testing.T) {
	h, sigma := 4, 3
	f := NewFigure1(h, sigma)
	if f.G.N() != 2*h+h*sigma {
		t.Fatalf("N=%d, want %d", f.G.N(), 2*h+h*sigma)
	}
	if !f.G.Connected() {
		t.Fatal("gadget should be connected")
	}
	// The dashed edge exists with weight 1.
	e, ok := f.G.EdgeBetween(f.UNode[0], f.VNode[h-1])
	if !ok || e.W != 1 {
		t.Fatalf("dashed edge = %+v, %v", e, ok)
	}
	// Source edges have weight 4ih.
	for i := 1; i <= h; i++ {
		for _, s := range f.Column(i) {
			e, ok := f.G.EdgeBetween(f.VNode[i-1], s)
			if !ok || e.W != Weight(4*i*h) {
				t.Fatalf("source edge column %d = %+v, %v", i, e, ok)
			}
		}
	}
}

func TestFigure1ExpectedListsMatchGroundTruth(t *testing.T) {
	h, sigma := 5, 4
	f := NewFigure1(h, sigma)
	ap := AllPairs(f.G)
	for i := 1; i <= h; i++ {
		u := f.UNode[i-1]
		wantSources, wantDist := f.ExpectedList(i)
		for _, s := range wantSources {
			if got := ap.Dist(u, s); got != wantDist {
				t.Fatalf("dist(u_%d, s)=%d, want %d", i, got, wantDist)
			}
			if got := ap.Hops(u, s); got != int32(h+1) {
				t.Fatalf("hops(u_%d, s)=%d, want %d", i, got, h+1)
			}
		}
		// Sources in columns below i are out of hop range h+1; columns
		// above are in range but strictly farther by weight.
		if i > 1 {
			s := f.Column(i - 1)[0]
			if got := ap.Hops(u, s); got <= int32(h+1) {
				t.Fatalf("hops(u_%d, col %d)=%d, want > %d", i, i-1, got, h+1)
			}
		}
		if i < h {
			s := f.Column(i + 1)[0]
			if got := ap.Dist(u, s); got <= wantDist {
				t.Fatalf("column %d should be farther from u_%d than column %d", i+1, i, i)
			}
		}
	}
}

func TestFigure1PanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFigure1(0, 3)
}

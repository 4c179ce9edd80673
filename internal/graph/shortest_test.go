package graph

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
)

// boxedHeap is the container/heap form Dijkstra used before its typed
// push and pop: the differential reference for pop order.
type boxedHeap []dijkstraItem

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return dijkstraHeap(h).less(i, j) }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(dijkstraItem)) }
func (h *boxedHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstraBoxed is Dijkstra over container/heap, line for line.
func dijkstraBoxed(g *Graph, src int) *SSSP {
	n := g.N()
	out := &SSSP{Source: src, Dist: make([]Weight, n), Hops: make([]int32, n), Parent: make([]int32, n)}
	for v := range out.Dist {
		out.Dist[v], out.Hops[v], out.Parent[v] = Infinity, -1, -1
	}
	out.Dist[src], out.Hops[src] = 0, 0
	h := boxedHeap{{node: int32(src)}}
	for h.Len() > 0 {
		it := heap.Pop(&h).(dijkstraItem)
		v := int(it.node)
		if it.dist != out.Dist[v] || it.hops != out.Hops[v] {
			continue
		}
		for _, e := range g.Neighbors(v) {
			nd, nh := it.dist+e.W, it.hops+1
			if nd < out.Dist[e.To] || (nd == out.Dist[e.To] && nh < out.Hops[e.To]) {
				out.Dist[e.To], out.Hops[e.To], out.Parent[e.To] = nd, nh, int32(v)
				heap.Push(&h, dijkstraItem{dist: nd, hops: nh, node: int32(e.To)})
			}
		}
	}
	return out
}

// TestDijkstraMatchesContainerHeap: the typed heap pops in container/heap's
// order, so every Parent — ties included, which small weights make common
// — is the one the boxed heap chose.
func TestDijkstraMatchesContainerHeap(t *testing.T) {
	for _, c := range []struct {
		family string
		n      int
		maxW   Weight
	}{
		{"roadgrid", 144, 3},
		{"community", 96, 2},
		{"random", 80, 64},
	} {
		g, err := Generate(c.family, c.n, c.maxW, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < g.N(); src += 7 {
			if got, want := Dijkstra(g, src), dijkstraBoxed(g, src); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s n=%d src=%d: typed heap diverges from container/heap", c.family, c.n, src)
			}
		}
	}
}

// BenchmarkDijkstra is one source on churn-mixed's graph (roadgrid
// n=576), the search each stretch probe of a build or update runs.
func BenchmarkDijkstra(b *testing.B) {
	g, err := Generate("roadgrid", 576, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		Dijkstra(g, i%g.N())
	}
}

// TestDijkstraToMatchesDijkstraOnTargets: a search stopped once its
// targets are settled gives each target the Dist, Hops and Parent of the
// full search, on every generator family, for target sets from a single
// node to every node, with repeats and with src among them.
func TestDijkstraToMatchesDijkstraOnTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, family := range generatorNames() {
		g, err := Generate(family, 96, 16, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		for src := 0; src < n; src += 11 {
			full := Dijkstra(g, src)
			for _, k := range []int{1, 3, 8, n} {
				targets := make([]int32, k)
				for j := range targets {
					targets[j] = int32(rng.Intn(n))
				}
				targets[0] = int32(src)
				got := DijkstraTo(g, src, targets)
				for _, s := range targets {
					if got.Dist[s] != full.Dist[s] || got.Hops[s] != full.Hops[s] || got.Parent[s] != full.Parent[s] {
						t.Fatalf("%s src=%d k=%d: target %d = (%d, %d, %d), full search (%d, %d, %d)", family, src, k, s,
							got.Dist[s], got.Hops[s], got.Parent[s], full.Dist[s], full.Hops[s], full.Parent[s])
					}
				}
			}
			if got := DijkstraTo(g, src, []int32{}); got.Dist[src] != 0 {
				t.Fatalf("%s src=%d: no targets leaves src at %d", family, src, got.Dist[src])
			}
		}
	}
}

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

package graph

import (
	"container/heap"
	"runtime"
	"sync"
)

// SSSP holds single-source shortest-path ground truth for one source.
//
// Dist[v] is the exact weighted distance wd(src, v) and Hops[v] is the
// paper's "shortest path distance" h_{src,v}: the minimum hop count among
// all minimum-weight paths (§2.2). Unreachable nodes have Dist = Infinity
// and Hops = -1.
type SSSP struct {
	Source int
	Dist   []Weight
	Hops   []int32
	// Parent[v] is the predecessor of v on a minimum-(weight, hops) path
	// from Source, or -1 for the source and unreachable nodes.
	Parent []int32
}

type dijkstraItem struct {
	dist Weight
	hops int32
	node int32
}

type dijkstraHeap []dijkstraItem

func (h dijkstraHeap) Len() int { return len(h) }
func (h dijkstraHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].hops < h[j].hops
}
func (h dijkstraHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *dijkstraHeap) Push(x interface{}) { *h = append(*h, x.(dijkstraItem)) }
func (h *dijkstraHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Dijkstra computes exact (weight, hops)-lexicographic shortest paths from
// src. The hop counts are exactly the h_{src,v} values the paper's
// guarantees are stated in terms of.
func Dijkstra(g *Graph, src int) *SSSP {
	n := g.N()
	out := &SSSP{
		Source: src,
		Dist:   make([]Weight, n),
		Hops:   make([]int32, n),
		Parent: make([]int32, n),
	}
	for v := range out.Dist {
		out.Dist[v] = Infinity
		out.Hops[v] = -1
		out.Parent[v] = -1
	}
	out.Dist[src] = 0
	out.Hops[src] = 0
	h := dijkstraHeap{{dist: 0, hops: 0, node: int32(src)}}
	for h.Len() > 0 {
		it := heap.Pop(&h).(dijkstraItem)
		v := int(it.node)
		if it.dist != out.Dist[v] || it.hops != out.Hops[v] {
			continue // stale entry
		}
		for _, e := range g.Neighbors(v) {
			nd := it.dist + e.W
			nh := it.hops + 1
			if nd < out.Dist[e.To] || (nd == out.Dist[e.To] && nh < out.Hops[e.To]) {
				out.Dist[e.To] = nd
				out.Hops[e.To] = nh
				out.Parent[e.To] = int32(v)
				heap.Push(&h, dijkstraItem{dist: nd, hops: nh, node: int32(e.To)})
			}
		}
	}
	return out
}

// BFS returns hop distances from src (-1 when unreachable), ignoring
// weights: the hop distance hd of §2.2.
func BFS(g *Graph, src int) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := int(queue[0])
		queue = queue[1:]
		for _, e := range g.Neighbors(v) {
			if dist[e.To] < 0 {
				dist[e.To] = dist[v] + 1
				queue = append(queue, int32(e.To))
			}
		}
	}
	return dist
}

// APSP holds all-pairs ground truth, one SSSP per source.
type APSP struct {
	BySource []*SSSP
}

// Dist returns wd(u, v).
func (a *APSP) Dist(u, v int) Weight { return a.BySource[u].Dist[v] }

// Hops returns h_{u,v}, the minimal hop count over shortest weighted paths.
func (a *APSP) Hops(u, v int) int32 { return a.BySource[u].Hops[v] }

// AllPairs computes exact APSP ground truth by running Dijkstra from every
// source on a worker pool.
func AllPairs(g *Graph) *APSP {
	n := g.N()
	out := &APSP{BySource: make([]*SSSP, n)}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for v := 0; v < n; v++ {
		next <- v
	}
	close(next)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for src := range next {
				out.BySource[src] = Dijkstra(g, src)
			}
		}()
	}
	wg.Wait()
	return out
}

// HopDiameter returns the hop diameter D of the graph (§2.2), or -1 if the
// graph is disconnected or empty.
func HopDiameter(g *Graph) int {
	n := g.N()
	if n == 0 {
		return -1
	}
	best := 0
	for src := 0; src < n; src++ {
		for _, d := range BFS(g, src) {
			if d < 0 {
				return -1
			}
			if int(d) > best {
				best = int(d)
			}
		}
	}
	return best
}

// DiametersFrom computes the hop diameter D, weighted diameter WD, and
// shortest path diameter SPD of a connected graph from precomputed ground
// truth. For a disconnected graph it returns (-1, Infinity, -1).
func DiametersFrom(g *Graph, ap *APSP) (d int, wd Weight, spd int) {
	n := g.N()
	for src := 0; src < n; src++ {
		s := ap.BySource[src]
		for v := 0; v < n; v++ {
			if s.Dist[v] == Infinity {
				return -1, Infinity, -1
			}
			if s.Dist[v] > wd {
				wd = s.Dist[v]
			}
			if int(s.Hops[v]) > spd {
				spd = int(s.Hops[v])
			}
		}
		for _, hd := range BFS(g, src) {
			if int(hd) > d {
				d = int(hd)
			}
		}
	}
	return d, wd, spd
}

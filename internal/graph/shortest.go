package graph

import "pde/internal/par"

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

// dijkstraHeap is a binary min-heap ordered by (dist, hops). push and pop
// are container/heap's Push and Pop with its up and down copied step for
// step — the same swaps, so the same pop order and Parent ties — without
// boxing every item in an interface.
type dijkstraHeap []dijkstraItem

func (h dijkstraHeap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].hops < h[j].hops
}

func (h *dijkstraHeap) push(it dijkstraItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *dijkstraHeap) pop() dijkstraItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// Dijkstra computes exact (weight, hops)-lexicographic shortest paths from
// src. The hop counts are exactly the h_{src,v} values the paper's
// guarantees are stated in terms of.
func Dijkstra(g *Graph, src int) *SSSP { return DijkstraTo(g, src, nil) }

// DijkstraTo is Dijkstra that stops once every node of targets is
// settled, the early exit of a search that needs only those distances.
// Each target's Dist, Hops and Parent are then Dijkstra's; another node's
// are an upper bound on its own, or unset. A nil targets settles every
// node, and an empty one none but src.
func DijkstraTo(g *Graph, src int, targets []int32) *SSSP {
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
	// pending[v] marks a target not yet settled, and left counts them.
	var pending []bool
	left := 0
	if targets != nil {
		pending = make([]bool, n)
		for _, t := range targets {
			if !pending[t] {
				pending[t] = true
				left++
			}
		}
		if left == 0 {
			return out
		}
	}
	h := dijkstraHeap{{dist: 0, hops: 0, node: int32(src)}}
	for len(h) > 0 {
		it := h.pop()
		v := int(it.node)
		if it.dist != out.Dist[v] || it.hops != out.Hops[v] {
			continue // stale entry
		}
		if pending != nil && pending[v] {
			if pending[v], left = false, left-1; left == 0 {
				break
			}
		}
		for _, e := range g.Neighbors(v) {
			nd := it.dist + e.W
			nh := it.hops + 1
			if nd < out.Dist[e.To] || (nd == out.Dist[e.To] && nh < out.Hops[e.To]) {
				out.Dist[e.To] = nd
				out.Hops[e.To] = nh
				out.Parent[e.To] = int32(v)
				h.push(dijkstraItem{dist: nd, hops: nh, node: int32(e.To)})
			}
		}
	}
	return out
}

// hopDist returns hop distances from src (-1 when unreachable), ignoring
// weights: the hop distance hd of §2.2.
func hopDist(g *Graph, src int) []int32 {
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
// source, the sources claimed by par.For at GOMAXPROCS.
func AllPairs(g *Graph) *APSP {
	out := &APSP{BySource: make([]*SSSP, g.N())}
	par.For(0, g.N(), func(_, src int) error {
		out.BySource[src] = Dijkstra(g, src)
		return nil
	})
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
		for _, d := range hopDist(g, src) {
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

// Package graph provides the weighted undirected graph substrate used by
// every algorithm in this repository: construction, generators for the
// workloads the paper's experiments need, and exact shortest-path ground
// truth (Dijkstra with lexicographic (weight, hops) keys, BFS, APSP).
//
// Nodes are dense integers 0..n-1, matching the CONGEST model's assumption
// of O(log n)-bit unique identifiers. Edge weights are positive int64 and
// all generators keep them bounded by a polynomial in n, as the paper
// assumes (§2.1).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Weight is the type of edge weights and exact distances.
type Weight = int64

// Infinity is the sentinel distance for unreachable pairs.
const Infinity Weight = math.MaxInt64

// Edge is one direction of an undirected edge as seen from its source node.
type Edge struct {
	To int    // neighbor node
	W  Weight // edge weight, >= 1
	ID int32  // undirected edge id, shared by both directions
}

// Graph is an immutable simple connected-or-not weighted undirected graph.
// The zero value is an empty graph with no nodes.
type Graph struct {
	adj [][]Edge
	m   int
	max Weight

	// lm is derived from adj on first use (see Landmarks).
	lmOnce sync.Once
	lm     *Landmarks
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n     int
	us    []int
	vs    []int
	ws    []Weight
	seen  map[[2]int]struct{}
	fault error
}

// NewBuilder returns a builder for a graph with n nodes (0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, seen: make(map[[2]int]struct{})}
}

// AddEdge records the undirected edge {u, v} with weight w. Errors are
// deferred to Build so that call sites can chain additions.
func (b *Builder) AddEdge(u, v int, w Weight) *Builder {
	if b.fault != nil {
		return b
	}
	switch {
	case u < 0 || u >= b.n || v < 0 || v >= b.n:
		b.fault = fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	case u == v:
		b.fault = fmt.Errorf("graph: self-loop at node %d", u)
	case w < 1:
		b.fault = fmt.Errorf("graph: edge {%d,%d} has non-positive weight %d", u, v, w)
	}
	if b.fault != nil {
		return b
	}
	key := [2]int{min(u, v), max(u, v)}
	if _, dup := b.seen[key]; dup {
		b.fault = fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
		return b
	}
	b.seen[key] = struct{}{}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
	return b
}

// HasEdge reports whether the undirected edge {u,v} has been added.
func (b *Builder) HasEdge(u, v int) bool {
	_, ok := b.seen[[2]int{min(u, v), max(u, v)}]
	return ok
}

// N returns the number of nodes the builder was created with.
func (b *Builder) N() int { return b.n }

// M returns the number of edges added so far.
func (b *Builder) M() int { return len(b.us) }

// Build validates the accumulated edges and returns the graph.
func (b *Builder) Build() (*Graph, error) {
	if b.fault != nil {
		return nil, b.fault
	}
	if b.n < 0 {
		return nil, errors.New("graph: negative node count")
	}
	deg := make([]int, b.n)
	for i := range b.us {
		deg[b.us[i]]++
		deg[b.vs[i]]++
	}
	adj := make([][]Edge, b.n)
	for v, d := range deg {
		adj[v] = make([]Edge, 0, d)
	}
	var maxW Weight
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		id := int32(i)
		adj[u] = append(adj[u], Edge{To: v, W: w, ID: id})
		adj[v] = append(adj[v], Edge{To: u, W: w, ID: id})
		if w > maxW {
			maxW = w
		}
	}
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i].To < adj[v][j].To })
	}
	return &Graph{adj: adj, m: len(b.us), max: maxW}, nil
}

// MustBuild is Build for construction known statically to be valid,
// e.g. generators and tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// MaxWeight returns the largest edge weight (0 for an edgeless graph).
func (g *Graph) MaxWeight() Weight { return g.max }

// Neighbors returns the adjacency list of v, sorted by neighbor id.
// The slice is shared; callers must not modify it.
func (g *Graph) Neighbors(v int) []Edge { return g.adj[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// EdgeBetween returns the edge from u to v, if present.
func (g *Graph) EdgeBetween(u, v int) (Edge, bool) {
	lst := g.adj[u]
	i := sort.Search(len(lst), func(i int) bool { return lst[i].To >= v })
	if i < len(lst) && lst[i].To == v {
		return lst[i], true
	}
	return Edge{}, false
}

// Edges calls fn once per undirected edge with u < v.
func (g *Graph) Edges(fn func(u, v int, w Weight, id int32)) {
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if u < e.To {
				fn(u, e.To, e.W, e.ID)
			}
		}
	}
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := make([]int, 0, n)
	stack = append(stack, 0)
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !seen[e.To] {
				seen[e.To] = true
				cnt++
				stack = append(stack, e.To)
			}
		}
	}
	return cnt == n
}

package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// randWeight draws a weight uniformly from [1, maxW].
func randWeight(rng *rand.Rand, maxW Weight) Weight {
	if maxW <= 1 {
		return 1
	}
	return 1 + Weight(rng.Int63n(int64(maxW)))
}

// spanningPermTree adds a random spanning tree over a random permutation of
// the nodes, guaranteeing connectivity. Each new node attaches to a
// uniformly random earlier node.
func spanningPermTree(b *Builder, rng *rand.Rand, maxW Weight) {
	n := b.N()
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := perm[i]
		v := perm[rng.Intn(i)]
		if !b.HasEdge(u, v) {
			b.AddEdge(u, v, randWeight(rng, maxW))
		}
	}
}

// RandomConnected generates a connected Erdős–Rényi-style G(n, p) graph
// with uniform weights in [1, maxW]. A random spanning tree is added first
// so the result is always connected.
func RandomConnected(n int, p float64, maxW Weight, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	spanningPermTree(b, rng, maxW)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p && !b.HasEdge(u, v) {
				b.AddEdge(u, v, randWeight(rng, maxW))
			}
		}
	}
	return b.MustBuild()
}

// Geometric generates a random geometric graph: n points uniform in the
// unit square, edges between points at Euclidean distance <= radius, edge
// weight proportional to distance (scaled to [1, maxW]). Connectivity is
// ensured with a chain through the points sorted by x coordinate.
func Geometric(n int, radius float64, maxW Weight, rng *rand.Rand) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	weight := func(u, v int) Weight {
		d := math.Hypot(xs[u]-xs[v], ys[u]-ys[v])
		w := Weight(math.Ceil(d / math.Sqrt2 * float64(maxW)))
		if w < 1 {
			w = 1
		}
		return w
	}
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if math.Hypot(xs[u]-xs[v], ys[u]-ys[v]) <= radius {
				b.AddEdge(u, v, weight(u, v))
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Insertion sort by x: n is small in experiments and this avoids
	// importing sort for a closure over two slices.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && xs[order[j]] < xs[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for i := 1; i < n; i++ {
		u, v := order[i-1], order[i]
		if !b.HasEdge(u, v) {
			b.AddEdge(u, v, weight(u, v))
		}
	}
	return b.MustBuild()
}

// Grid generates a rows x cols grid with uniform random weights.
func Grid(rows, cols int, maxW Weight, rng *rand.Rand) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1), randWeight(rng, maxW))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c), randWeight(rng, maxW))
			}
		}
	}
	return b.MustBuild()
}

// Torus generates a rows x cols torus (grid with wraparound) with uniform
// random weights. rows and cols must be >= 3 to avoid duplicate edges.
func Torus(rows, cols int, maxW Weight, rng *rand.Rand) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: torus dimensions %dx%d must be >= 3", rows, cols))
	}
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols), randWeight(rng, maxW))
			b.AddEdge(id(r, c), id((r+1)%rows, c), randWeight(rng, maxW))
		}
	}
	return b.MustBuild()
}

// Ring generates an n-cycle with uniform random weights (n >= 3).
func Ring(n int, maxW Weight, rng *rand.Rand) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: ring size %d must be >= 3", n))
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n, randWeight(rng, maxW))
	}
	return b.MustBuild()
}

// Path generates an n-node path with uniform random weights.
func Path(n int, maxW Weight, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1, randWeight(rng, maxW))
	}
	return b.MustBuild()
}

// Star generates a star with center 0 and uniform random weights.
func Star(n int, maxW Weight, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v, randWeight(rng, maxW))
	}
	return b.MustBuild()
}

// Clique generates the complete graph K_n with uniform random weights.
// The Congested Clique is the paper's extreme example of hop distance 1
// with shortest weighted paths of up to Θ(n) hops.
func Clique(n int, maxW Weight, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v, randWeight(rng, maxW))
		}
	}
	return b.MustBuild()
}

// Internet generates a rough ISP-like hierarchy: a small densely-connected
// core with low-weight edges, mid-tier routers attached to two core nodes,
// and stub nodes attached to one mid-tier router with high-weight access
// links. It is the kind of topology the paper's routing motivation (§1)
// describes.
func Internet(n int, maxW Weight, rng *rand.Rand) *Graph {
	if n < 4 {
		return RandomConnected(n, 0.5, maxW, rng)
	}
	core := n / 10
	if core < 3 {
		core = 3
	}
	mid := n / 3
	if core+mid > n {
		mid = n - core
	}
	b := NewBuilder(n)
	coreW := maxW/10 + 1
	for u := 0; u < core; u++ {
		for v := u + 1; v < core; v++ {
			if rng.Float64() < 0.6 && !b.HasEdge(u, v) {
				b.AddEdge(u, v, randWeight(rng, coreW))
			}
		}
	}
	// Ring through the core so it is connected even at low density.
	for u := 0; u < core; u++ {
		v := (u + 1) % core
		if !b.HasEdge(u, v) {
			b.AddEdge(u, v, randWeight(rng, coreW))
		}
	}
	for v := core; v < core+mid; v++ {
		a := rng.Intn(core)
		c := rng.Intn(core)
		b.AddEdge(v, a, randWeight(rng, maxW/2+1))
		if c != a {
			b.AddEdge(v, c, randWeight(rng, maxW/2+1))
		}
	}
	for v := core + mid; v < n; v++ {
		b.AddEdge(v, core+rng.Intn(mid), randWeight(rng, maxW))
	}
	return b.MustBuild()
}

// RandomTree generates a uniformly attached random tree.
func RandomTree(n int, maxW Weight, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	spanningPermTree(b, rng, maxW)
	return b.MustBuild()
}

// BarabasiAlbert generates a power-law graph by preferential attachment:
// each new node attaches m edges to existing nodes chosen proportionally
// to their current degree (the repeated-endpoints urn), producing the
// heavy-tailed degree distribution of web/social topologies. The first
// attachment of every node is kept even when the urn draws collide, so the
// graph is always connected. Weights are uniform in [1, maxW].
func BarabasiAlbert(n, m int, maxW Weight, rng *rand.Rand) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: barabasi-albert size %d must be >= 2", n))
	}
	if m < 1 {
		m = 1
	}
	b := NewBuilder(n)
	// Urn of edge endpoints: a node appears once per incident edge, so a
	// uniform draw is degree-proportional. Node 0 is seeded once so the
	// first attachment has a target.
	urn := make([]int, 0, 2*n*m)
	urn = append(urn, 0)
	for v := 1; v < n; v++ {
		attached := 0
		for t := 0; t < m && attached < v; t++ {
			u := urn[rng.Intn(len(urn))]
			if u == v || b.HasEdge(u, v) {
				// Collision with itself (v enters the urn as it attaches) or
				// an already-chosen hub: fall back to a uniform probe so
				// low-id phases still reach the full m when possible.
				u = rng.Intn(v)
				if b.HasEdge(u, v) {
					continue
				}
			}
			b.AddEdge(u, v, randWeight(rng, maxW))
			urn = append(urn, u, v)
			attached++
		}
	}
	return b.MustBuild()
}

// Community generates a clustered (planted-partition) graph: n nodes are
// split round-robin into k communities; node pairs inside a community are
// joined with probability pIn, pairs across communities with pOut << pIn.
// Intra-community edges get low weights (local links), inter-community
// edges get weights up to maxW (backbone links). A random spanning tree
// guarantees connectivity at any density.
func Community(n, k int, pIn, pOut float64, maxW Weight, rng *rand.Rand) *Graph {
	if k < 1 {
		k = 1
	}
	b := NewBuilder(n)
	spanningPermTree(b, rng, maxW)
	localW := maxW/4 + 1
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p, w := pOut, maxW
			if u%k == v%k {
				p, w = pIn, localW
			}
			if rng.Float64() < p && !b.HasEdge(u, v) {
				b.AddEdge(u, v, randWeight(rng, w))
			}
		}
	}
	return b.MustBuild()
}

// RoadGrid generates a road-like rows × cols grid in which a fraction of
// the road segments (grid edges) are obstacles and removed, as in street
// networks with blocked or missing links. Every intersection remains a
// node; after the obstacle pass, a union-find sweep reopens blocked
// segments in row-major generation order whenever one still bridges two
// fragments, so the graph is always connected. Weights are uniform in
// [1, maxW].
func RoadGrid(rows, cols int, obstacleFrac float64, maxW Weight, rng *rand.Rand) *Graph {
	n := rows * cols
	b := NewBuilder(n)
	id := func(r, c int) int { return r*cols + c }

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) bool {
		rx, ry := find(x), find(y)
		if rx == ry {
			return false
		}
		parent[rx] = ry
		return true
	}

	type seg struct{ u, v int }
	var blocked []seg
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for _, d := range [2][2]int{{0, 1}, {1, 0}} {
				nr, nc := r+d[0], c+d[1]
				if nr >= rows || nc >= cols {
					continue
				}
				u, v := id(r, c), id(nr, nc)
				if rng.Float64() < obstacleFrac {
					blocked = append(blocked, seg{u, v})
					continue
				}
				b.AddEdge(u, v, randWeight(rng, maxW))
				union(u, v)
			}
		}
	}
	// Reconnect: reopen blocked segments (in generation order) that still
	// bridge two components.
	for _, s := range blocked {
		if find(s.u) != find(s.v) {
			b.AddEdge(s.u, s.v, randWeight(rng, maxW))
			union(s.u, s.v)
		}
	}
	return b.MustBuild()
}

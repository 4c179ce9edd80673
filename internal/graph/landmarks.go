package graph

// MaxAuxLandmarks bounds the auxiliary landmark count of Landmarks: each
// one is one more exact Dijkstra and one more n-vector per graph.
const MaxAuxLandmarks = 3

// Landmarks are exact shortest-path key vectors from a few mutually
// far-apart nodes: key[v] = wd(c, v), Infinity where unreachable. By the
// triangle inequality |key[a] − key[b]| ≤ wd(a, b) for every landmark c,
// which is what bound-pruned searches (internal/setdist) use them for.
// The vectors are shared and read-only.
type Landmarks struct {
	// Key1 is the first landmark's vector, the one callers order by.
	Key1 []Weight
	// Aux holds up to MaxAuxLandmarks further vectors.
	Aux [][]Weight
}

// Landmarks returns the graph's landmark keys, computing them on first
// use; concurrent callers share the one computation. They belong to this
// graph value and go with it: a graph derived by ApplyChanges computes
// its own, so a key never bounds distances it was not measured on.
func (g *Graph) Landmarks() *Landmarks {
	g.lmOnce.Do(func() { g.lm = newLandmarks(g) })
	return g.lm
}

// newLandmarks picks the landmark set by farthest-point traversal from
// node 0: each auxiliary landmark is the node maximizing the minimum
// distance to the landmarks picked so far (smallest id on ties) —
// maximally spread, so the key differences bound distances along roughly
// orthogonal directions of the graph.
func newLandmarks(g *Graph) *Landmarks {
	if g.N() == 0 {
		return &Landmarks{}
	}
	const c1 = 0
	sp1 := Dijkstra(g, c1)
	lm := &Landmarks{Key1: sp1.Dist}
	minDist := append([]Weight(nil), sp1.Dist...)
	for len(lm.Aux) < MaxAuxLandmarks {
		c, far := c1, Weight(0)
		for v, d := range minDist {
			if d != Infinity && d > far {
				far, c = d, v
			}
		}
		if c == c1 {
			// Every node is at distance 0 from a chosen landmark (or
			// unreachable): further landmarks add no information.
			break
		}
		sp := Dijkstra(g, c)
		lm.Aux = append(lm.Aux, sp.Dist)
		for v, d := range sp.Dist {
			if d < minDist[v] {
				minDist[v] = d
			}
		}
	}
	return lm
}

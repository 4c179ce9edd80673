package core

import (
	"fmt"
	"math"
	"sort"

	"pde/internal/graph"
)

// SkeletonOverlay assembles the overlay graph on the skeleton nodes skel
// (overlay node i is skel[i]; index maps a node id back to i) from a PDE
// result in which they detected each other: an edge {s,t} whenever both
// endpoints hold an entry for the other (σ = |skel| means detection is
// mutual), weighted by the larger of the two rounded-up estimates. Using
// the max keeps every skeleton node's own estimate at or below the edge
// weight, which the long-range potential argument of Theorem 4.5 and the
// G̃(l0) simulation of §4.3 both need.
func (r *Result) SkeletonOverlay(skel []int32, index map[int32]int) (*graph.Graph, error) {
	b := graph.NewBuilder(len(skel))
	type pair struct{ i, j int }
	seen := make(map[pair]graph.Weight) // first direction's weight
	both := make(map[pair]graph.Weight) // max of the two directions
	var keys []pair                     // both's keys
	for i, s := range skel {
		for _, e := range r.Lists[s] {
			if e.Src == s {
				continue
			}
			j, ok := index[e.Src]
			if !ok {
				return nil, fmt.Errorf("core: non-skeleton source %d in skeleton PDE", e.Src)
			}
			key := pair{min(i, j), max(i, j)}
			w := graph.Weight(math.Ceil(e.Dist))
			if w < 1 {
				w = 1
			}
			if first, ok := seen[key]; ok {
				if _, dup := both[key]; !dup {
					keys = append(keys, key)
				}
				both[key] = max(first, w)
			} else {
				seen[key] = w
			}
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].i != keys[b].i {
			return keys[a].i < keys[b].i
		}
		return keys[a].j < keys[b].j
	})
	for _, k := range keys {
		b.AddEdge(k.i, k.j, both[k])
	}
	return b.Build()
}

// Potential is the Lemma 4.10 skeleton combination at node x (the
// long-range leg of Theorem 4.5): the minimum over x's entries t of
// wd'(x,t) + tail[index[t]], where tail holds, per overlay index, the
// globally known distance from t onward and +Inf marks unreachable. Ties
// go to the smaller node id; argmin is -1 when no entry is finite.
func (r *Result) Potential(x int, index map[int32]int, tail []float64) (best float64, argmin int32) {
	best, argmin = math.Inf(1), -1
	for _, e := range r.Lists[x] {
		i, ok := index[e.Src]
		if !ok {
			continue
		}
		if v := e.Dist + tail[i]; v < best || (v == best && e.Src < argmin) {
			best, argmin = v, e.Src
		}
	}
	return best, argmin
}

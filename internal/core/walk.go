package core

import (
	"fmt"

	"pde/internal/graph"
)

// Route is a delivered route: the node sequence and its total weight.
type Route struct {
	Path   []int
	Weight graph.Weight
}

// Stretch returns Weight / exact, the route's stretch (+Inf when exact is
// zero but the route has positive weight).
func (rt *Route) Stretch(exact graph.Weight) float64 {
	return graph.Stretch(rt.Weight, exact)
}

// Walk is the one hop loop: it forwards a packet from v to dst, asking
// next for each hop, exactly as a packet would travel, and returns the
// node sequence with its weight. A hop that is not an edge of g, a node
// that forwards to itself before arrival (a next hop equal to the current
// node is the terminal signal, legitimate only at dst) and more than
// maxSteps hops are routing bugs reported as errors; an error from next is
// passed through.
func Walk(g *graph.Graph, v, dst, maxSteps int, next func(cur int) (int, error)) (Route, error) {
	rt := Route{Path: []int{v}}
	for cur, steps := v, 0; cur != dst; steps++ {
		if steps > maxSteps {
			return Route{}, fmt.Errorf("core: route %d->%d exceeded %d steps (loop?)", v, dst, maxSteps)
		}
		hop, err := next(cur)
		if err != nil {
			return Route{}, err
		}
		if hop == cur {
			return Route{}, fmt.Errorf("core: node %d returned itself as next hop for %d before arrival", cur, dst)
		}
		edge, ok := g.EdgeBetween(cur, hop)
		if !ok {
			return Route{}, fmt.Errorf("core: next hop %d is not a neighbor of %d", hop, cur)
		}
		rt.Weight += edge.W
		rt.Path = append(rt.Path, hop)
		cur = hop
	}
	return rt, nil
}

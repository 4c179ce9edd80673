package core

import (
	"fmt"

	"pde/internal/graph"
)

// Estimator answers point distance queries against a built PDE table.
// *Result is the reference implementation (a linear scan over every
// instance's list); internal/oracle compiles a Result into a flat indexed
// form that answers the same queries in O(log σ) and plugs in here via
// NewRouterWith. Implementations must be bit-identical to Result.Estimate.
type Estimator interface {
	Estimate(v int, s int32) (Estimate, bool)
}

// Router realizes Corollary 3.5's stateless stretch-(1+ε) routing: each
// node keeps its per-instance detection lists, and forwards a packet for
// source s to the recorded next hop of whichever instance currently gives
// the smallest estimate. The estimate strictly decreases by at least the
// traversed edge weight at every hop (the argument of Lemma 4.4), so
// routes are loop-free and their weight is at most w̃d(v,s) ≤ (1+ε)·wd(v,s).
type Router struct {
	g   *graph.Graph
	res *Result
	est Estimator
}

// NewRouter wraps a PDE result for route evaluation, serving hop decisions
// from the legacy scan path (Result.Estimate).
func NewRouter(g *graph.Graph, res *Result) *Router {
	return NewRouterWith(g, res, res)
}

// NewRouterWith wraps a PDE result but serves hop decisions from est (an
// indexed oracle compiled from res). res is still consulted for route
// bookkeeping (step bounds).
func NewRouterWith(g *graph.Graph, res *Result, est Estimator) *Router {
	return &Router{g: g, res: res, est: est}
}

// NextHop returns the neighbor to which v forwards a packet destined for
// s, and whether v has any table entry for s at all.
//
// Terminal semantics: when v == s the packet has arrived and NextHop
// returns (v, true). A returned next hop equal to the queried node always
// and only means "delivered" — callers driving their own forwarding loop
// must treat next == v as the stop condition rather than look up the
// (nonexistent) self-edge.
func (r *Router) NextHop(v int, s int32) (int, bool) {
	if v == int(s) {
		return v, true
	}
	e, ok := r.est.Estimate(v, s)
	if !ok || e.Via < 0 {
		return -1, false
	}
	return int(e.Via), true
}

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
// node is the terminal signal, see NextHop, so it is legitimate only at
// dst) and more than maxSteps hops are routing bugs reported as errors;
// an error from next is passed through.
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

// Route forwards from v to s using only local tables. It fails if some
// intermediate node has no entry for s or a loop is detected (neither can
// happen for s in v's output list; the error paths exist to surface bugs,
// not to be handled).
func (r *Router) Route(v int, s int32) (*Route, error) {
	rt, err := Walk(r.g, v, int(s), r.g.N()*(len(r.res.Instances)+2), func(cur int) (int, error) {
		next, ok := r.NextHop(cur, s)
		if !ok {
			return 0, fmt.Errorf("core: node %d has no table entry for %d (route from %d)", cur, s, v)
		}
		return next, nil
	})
	if err != nil {
		return nil, err
	}
	return &rt, nil
}

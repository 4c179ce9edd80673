package oracle

import (
	"fmt"
	"math"

	"pde/internal/core"
	"pde/internal/detection"
	"pde/internal/graph"
)

// The scan path the compiled tables replaced, kept beside compileBySort as
// the differential reference: every query walked each rounding instance's
// detection list at the node, and a route followed whichever instance's
// next hop that walk chose.

// scanEstimate is w̃d(v, s) = min_i b(i)·hd_i(v, s) read off the instance
// lists, with the best instance's next hop and flag: the first instance
// with the strictly smallest product wins.
func scanEstimate(res *core.Result, v int, s int32) (core.Estimate, bool) {
	best := core.Estimate{Dist: math.Inf(1)}
	found := false
	var buf []detection.Entry
	for i, inst := range res.Instances {
		buf = inst.Det.List(v, buf)
		for _, e := range buf {
			if e.Src != s {
				continue
			}
			if d := float64(e.Dist) * inst.Base; !found || d < best.Dist {
				best = core.Estimate{Dist: d, Src: s, Via: e.Via, Instance: int32(i), Flag: e.Flag}
				found = true
			}
			break
		}
	}
	return best, found
}

// scanNextHop is the next hop scanEstimate names, with NextHop's terminal
// semantics: v == s answers (v, true).
func scanNextHop(res *core.Result, v int, s int32) (int, bool) {
	if v == int(s) {
		return v, true
	}
	e, ok := scanEstimate(res, v, s)
	if !ok || e.Via < 0 {
		return -1, false
	}
	return int(e.Via), true
}

// scanRoute walks scanNextHop from v to s under the scan router's looser
// step cap, n·(i_max+3).
func scanRoute(g *graph.Graph, res *core.Result, v int, s int32) (*core.Route, error) {
	rt, err := core.Walk(g, v, int(s), g.N()*(len(res.Instances)+2), func(cur int) (int, error) {
		next, ok := scanNextHop(res, cur, s)
		if !ok {
			return 0, fmt.Errorf("scan: node %d has no table entry for %d (route from %d)", cur, s, v)
		}
		return next, nil
	})
	if err != nil {
		return nil, err
	}
	return &rt, nil
}

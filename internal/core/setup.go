package core

import (
	"fmt"

	"pde/internal/congest"
	"pde/internal/graph"
)

// setup is the +D setup of Corollary 3.5: a BFS tree from node 0 and the
// w_max aggregate over it. tree and agg are what the two phases cost in
// the build that last ran them.
type setup struct {
	bfs       *congest.Tree
	tree, agg *congest.Metrics
}

// setUp runs the setup on g, reusing what of prev's it can: prev's tree
// when prev has one, and prev's w_max as well unless a changed edge was
// at it or rose above it. Either way the w_max the setup concludes must
// be g's. spent sums the active rounds and messages this call ran itself.
func setUp(g *graph.Graph, cfg congest.Config, prev *Result, changed []graph.Reweight) (s setup, spent congest.Metrics, err error) {
	fresh := prev == nil || prev.setup.bfs == nil
	if fresh {
		tree, tm, err := congest.BuildBFSTree(g, 0, cfg.Sub())
		if err != nil {
			return s, spent, fmt.Errorf("core: setup BFS tree: %w", err)
		}
		s.bfs, s.tree = tree, tm
		spent.ActiveRounds, spent.Messages = tm.ActiveRounds, tm.Messages
	} else {
		s = prev.setup
	}
	var agg int64
	if fresh || movesMax(changed, prev.g.MaxWeight()) {
		local := make([]int64, g.N())
		for v := range local {
			for _, e := range g.Neighbors(v) {
				local[v] = max(local[v], e.W)
			}
		}
		var am *congest.Metrics
		if agg, am, err = congest.Aggregate(g, s.bfs, local, func(a, b int64) int64 { return max(a, b) }, cfg.Sub()); err != nil {
			return s, spent, fmt.Errorf("core: setup aggregate: %w", err)
		}
		s.agg = am
		spent.ActiveRounds += am.ActiveRounds
		spent.Messages += am.Messages
	} else {
		agg = prev.g.MaxWeight()
	}
	if agg != g.MaxWeight() {
		return s, spent, fmt.Errorf("core: aggregated w_max %d != %d", agg, g.MaxWeight())
	}
	return s, spent, nil
}

// movesMax reports whether a changed edge was at w_max, the maximum
// weight before the change, or rose above it: only then can the maximum
// after it differ. The edge's endpoints know both locally.
func movesMax(changed []graph.Reweight, maxW graph.Weight) bool {
	for _, e := range changed {
		if e.Was == maxW || e.Now > maxW {
			return true
		}
	}
	return false
}

package baseline

import (
	"math/rand"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
)

// RandomDelayPDE runs the same rounding reduction as the paper's PDE, but
// schedules announcements by random per-source delays — the randomized
// technique of Nanongkai [14] that Theorem 4.1 derandomizes. Delays are
// drawn uniformly from [0, maxDelay); maxDelay defaults to |S|, matching
// the O(|S|) delay range of [14]. The comparison of interest is rounds
// and messages against the deterministic lexicographic rule, plus the
// variance across seeds that the deterministic algorithm eliminates.
func RandomDelayPDE(g *graph.Graph, p core.Params, maxDelay int, rng *rand.Rand, cfg congest.Config) (*core.Result, error) {
	if maxDelay <= 0 {
		for _, s := range p.IsSource {
			if s {
				maxDelay++
			}
		}
		if maxDelay == 0 {
			maxDelay = 1
		}
	}
	delays := make([]int32, g.N())
	for v := range delays {
		if p.IsSource[v] {
			delays[v] = int32(rng.Intn(maxDelay))
		}
	}
	p.Delays = delays // non-nil: core schedules by detection.Priority
	// Delayed waves may finish up to maxDelay rounds later than the
	// deterministic schedule; widen every instance's budget accordingly.
	p.ExtraRounds += maxDelay
	return core.Run(g, p, cfg)
}

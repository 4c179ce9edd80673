package compact

import (
	"math/rand"
	"testing"

	"pde/internal/graph"
)

func TestTruncationAtLowestLevel(t *testing.T) {
	// L0 = 1 leaves only level 0 direct: the harshest truncation, where
	// all hierarchy structure lives on the skeleton graph.
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(36, 0.12, 8, rng)
	sch := build(t, g, Params{
		K: 2, Epsilon: 0.25, C: 1.5, L0: 1,
		Strategy: StrategySimulate, Seed: 3,
	})
	worst := assertAllPairsDeliveredWithStretch(t, g, sch, 1.0)
	t.Logf("L0=1 worst stretch %.3f", worst)
}

func TestTruncationStrategiesAgreeOnEstimates(t *testing.T) {
	// Simulate and Broadcast execute the truncated levels differently but
	// must produce estimates of the same quality; their distance queries
	// may differ only within the (1+ε) slack the simulation adds.
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(32, 0.14, 8, rng)
	p := Params{K: 3, Epsilon: 0.25, C: 1.5, L0: 2, Seed: 5}
	pSim := p
	pSim.Strategy = StrategySimulate
	pBro := p
	pBro.Strategy = StrategyBroadcast
	sim := build(t, g, pSim)
	bro := build(t, g, pBro)
	for v := 0; v < g.N(); v += 2 {
		for w := 1; w < g.N(); w += 2 {
			if v == w {
				continue
			}
			sa, ba := sim.Answer(v, sim.Labels[w]), bro.Answer(v, bro.Labels[w])
			if !sa.OK || !ba.OK {
				t.Fatalf("no estimate for (%d,%d): simulate %v, broadcast %v", v, w, sa.OK, ba.OK)
			}
			a, b := sa.Dist, ba.Dist
			// Broadcast computes exact skeleton-graph distances; the
			// simulation may be up to (1+ε) worse.
			if a > b*(1+p.Epsilon)+1e-6 || b > a*(1+p.Epsilon)+1e-6 {
				t.Fatalf("estimates diverge beyond slack: sim=%f broadcast=%f (%d,%d)", a, b, v, w)
			}
		}
	}
}

func TestTruncatedSchemeRoundsDiffer(t *testing.T) {
	// The two strategies must account different construction costs: the
	// broadcast strategy pays m̃+D once; the simulation pays per level.
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(32, 0.14, 8, rng)
	p := Params{K: 3, Epsilon: 0.25, C: 1.5, L0: 2, Seed: 7}
	pSim := p
	pSim.Strategy = StrategySimulate
	pBro := p
	pBro.Strategy = StrategyBroadcast
	sim := build(t, g, pSim)
	bro := build(t, g, pBro)
	if sim.Rounds.TruncatedSim == bro.Rounds.TruncatedSim {
		t.Fatalf("strategies charged identical truncation rounds (%d); accounting is broken",
			sim.Rounds.TruncatedSim)
	}
}

package rtc

import (
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

func TestTreeDescentPhaseIsExercised(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := graph.RandomConnected(60, 0.06, 12, rng)
	sch, _, err := Build(g, Params{
		K: 2, Epsilon: 0.25, SampleProb: 0.15,
		HOverride: 5, SigmaOverride: 5, Seed: 2,
	}, congest.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	treeHops := 0
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if v == w {
				continue
			}
			rt, err := sch.Route(v, sch.Labels[w])
			if err != nil {
				t.Fatal(err)
			}
			treeHops += rt.TreeHops
		}
	}
	if treeHops == 0 {
		t.Fatal("tree-descent phase never fired; the label's tree component is untested")
	}
	t.Logf("tree hops: %d", treeHops)
}

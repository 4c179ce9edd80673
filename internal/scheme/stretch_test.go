package scheme

import (
	"strings"
	"testing"

	"pde/internal/graph"
)

// TestStretchBoundsOnEveryFamily is the paper's guarantee exercised on
// every scenario family the generator registry knows, not just the random
// topology the experiment tables use: every delivered route must respect
// rtc's 6k−1+o(1) and compact's 4k−3+o(1), over all pairs.
func TestStretchBoundsOnEveryFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two schemes per topology family")
	}
	const n = 36
	for _, family := range strings.Split(graph.GeneratorList(), " | ") {
		family := family
		t.Run(family, func(t *testing.T) {
			specs := []Spec{
				{Scheme: "rtc", Topology: family, N: n, Eps: 0.25, MaxW: 12, Seed: 31, K: 2, SampleProb: 0.25},
				{Scheme: "compact", Topology: family, N: n, Eps: 0.25, MaxW: 12, Seed: 33, K: 2},
			}
			for _, sp := range specs {
				inst := mustBuild(t, sp)
				g := inst.Graph()
				ap := graph.AllPairs(g)
				bound := inst.Accounting().StretchBound + 0.5 // +o(1)
				worst := 0.0
				for v := 0; v < g.N(); v++ {
					for s := int32(0); s < int32(g.N()); s++ {
						if v == int(s) {
							continue
						}
						rt, err := inst.Route(v, s)
						if err != nil {
							t.Fatalf("%s route %d->%d: %v", sp.Scheme, v, s, err)
						}
						if rt.Path[len(rt.Path)-1] != int(s) {
							t.Fatalf("%s route %d->%d ended at %d", sp.Scheme, v, s, rt.Path[len(rt.Path)-1])
						}
						if st := graph.Stretch(rt.Weight, ap.Dist(v, int(s))); st > worst {
							worst = st
						}
					}
				}
				if worst > bound {
					t.Fatalf("%s on %s: worst stretch %.3f exceeds %.1f",
						sp.Scheme, family, worst, bound)
				}
				t.Logf("%s on %s: worst stretch %.3f (bound %.1f)", sp.Scheme, family, worst, bound)
			}
		})
	}
}

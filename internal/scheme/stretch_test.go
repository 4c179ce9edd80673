package scheme

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pde/internal/core"
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

// measureStretchFull is measureStretch as it was before its search was
// bounded by the probe's targets: a full Dijkstra from every probe source.
// It is the reference TestProbeMatchesFullSearch holds the probe to.
func measureStretchFull(g *graph.Graph, seed int64, route func(v int, s int32) (*core.Route, error), candidates func(v int) []int32) (maxS, meanS float64, routes int, err error) {
	n := g.N()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	var sum float64
	for i := 0; i < probeSources; i++ {
		v := rng.Intn(n)
		var targets []int32
		if candidates != nil {
			targets = candidates(v)
		}
		sp := graph.Dijkstra(g, v)
		for j := 0; j < probeTargets; j++ {
			var s int32
			if targets != nil {
				if len(targets) == 0 {
					break
				}
				s = targets[rng.Intn(len(targets))]
			} else {
				s = int32(rng.Intn(n))
			}
			if int(s) == v || sp.Dist[s] == graph.Infinity {
				continue
			}
			rt, rerr := route(v, s)
			if rerr != nil {
				return 0, 0, 0, rerr
			}
			st := graph.Stretch(rt.Weight, sp.Dist[s])
			if math.IsInf(st, 1) {
				continue
			}
			maxS = max(maxS, st)
			sum += st
			routes++
		}
	}
	if routes > 0 {
		meanS = sum / float64(routes)
	}
	return maxS, meanS, routes, nil
}

// TestProbeMatchesFullSearch: the stretch probe's accounting — the
// maximum, the mean and the route count — is bit-identical to the full
// search's, on partial and APSP oracle builds over every generator family
// and on an update's, and on the §4 backends, which probe every node.
func TestProbeMatchesFullSearch(t *testing.T) {
	var insts []Instance
	for _, family := range strings.Split(graph.GeneratorList(), " | ") {
		insts = append(insts,
			mustBuild(t, Spec{Topology: family, N: 64, Eps: 0.5, MaxW: 64, H: 3, Sigma: 4, Seed: 13}),
			mustBuild(t, Spec{Topology: family, N: 32, Eps: 1, MaxW: 8, Seed: 17}))
	}
	base := insts[0]
	updated, _, err := Update(base, drawn(t, base.Graph(), graph.ChangeNudge, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	insts = append(insts, updated, mustBuild(t, rtcSpec()), mustBuild(t, compactSpec()))
	for _, inst := range insts {
		var candidates func(v int) []int32
		if o, ok := inst.(*OracleInstance); ok {
			candidates = func(v int) []int32 {
				srcs := make([]int32, 0, len(o.Res.Lists[v]))
				for _, e := range o.Res.Lists[v] {
					srcs = append(srcs, e.Src)
				}
				return srcs
			}
		}
		maxS, meanS, routes, err := measureStretchFull(inst.Graph(), inst.Spec().Seed, inst.Route, candidates)
		if err != nil {
			t.Fatal(err)
		}
		a := inst.Accounting()
		if math.Float64bits(a.MeasuredStretch) != math.Float64bits(maxS) || math.Float64bits(a.MeanStretch) != math.Float64bits(meanS) || a.ProbeRoutes != routes {
			t.Fatalf("%s on %s: probe (%v, %v, %d), full search (%v, %v, %d)", inst.Scheme(), inst.Spec().Topology,
				a.MeasuredStretch, a.MeanStretch, a.ProbeRoutes, maxS, meanS, routes)
		}
		if routes == 0 {
			t.Fatalf("%s on %s: the probe routed nothing", inst.Scheme(), inst.Spec().Topology)
		}
	}
}

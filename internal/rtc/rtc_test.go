package rtc

import (
	"math"
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// buildScheme constructs a scheme with parameters that exercise the
// long-range machinery at test scale: a small sampling probability and
// small h and σ so that most pairs are NOT in each other's short-range
// tables.
func buildScheme(t *testing.T, g *graph.Graph, k int, seed int64) *Scheme {
	t.Helper()
	sch, _, err := Build(g, Params{
		K:          k,
		Epsilon:    0.25,
		SampleProb: 0.25,
		Seed:       seed,
	}, congest.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestRoutingDeliversAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(45, 0.08, 20, rng)
	sch := buildScheme(t, g, 2, 7)
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			rt, err := sch.Route(v, sch.Labels[w])
			if err != nil {
				t.Fatalf("route %d->%d: %v", v, w, err)
			}
			if rt.Path[len(rt.Path)-1] != w {
				t.Fatalf("route %d->%d ended at %d", v, w, rt.Path[len(rt.Path)-1])
			}
		}
	}
}

func TestRoutingStretchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{2, 3} {
		g := graph.RandomConnected(40, 0.1, 15, rng)
		ap := graph.AllPairs(g)
		sch := buildScheme(t, g, k, 11)
		bound := float64(6*k-1) + 0.5 // 6k-1 + o(1)
		worst := 0.0
		for v := 0; v < g.N(); v++ {
			for w := 0; w < g.N(); w++ {
				if v == w {
					continue
				}
				rt, err := sch.Route(v, sch.Labels[w])
				if err != nil {
					t.Fatal(err)
				}
				if s := rt.Stretch(ap.Dist(v, w)); s > worst {
					worst = s
				}
			}
		}
		if worst > bound {
			t.Fatalf("k=%d: worst stretch %f exceeds 6k-1+o(1) = %f", k, worst, bound)
		}
		t.Logf("k=%d worst stretch %.3f (bound %.1f)", k, worst, bound)
	}
}

func TestLongRangePhaseIsExercised(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(50, 0.07, 12, rng)
	sch, _, err := Build(g, Params{
		K: 2, Epsilon: 0.25, SampleProb: 0.2,
		HOverride: 6, SigmaOverride: 6, Seed: 5,
	}, congest.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	long := 0
	for v := 0; v < g.N(); v += 3 {
		for w := 1; w < g.N(); w += 3 {
			rt, err := sch.Route(v, sch.Labels[w])
			if err != nil {
				t.Fatal(err)
			}
			long += rt.LongHops
		}
	}
	if long == 0 {
		t.Fatal("expected some long-range hops with tiny short-range tables")
	}
}

func TestDistanceEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomConnected(40, 0.1, 18, rng)
	ap := graph.AllPairs(g)
	k := 2
	sch := buildScheme(t, g, k, 13)
	bound := float64(6*k-1) + 0.5
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if v == w {
				continue
			}
			est := sch.Dist(v, sch.Labels[w])
			if math.IsInf(est, 1) {
				t.Fatalf("no estimate %d->%d", v, w)
			}
			exact := float64(ap.Dist(v, w))
			if est < exact-1e-6 {
				t.Fatalf("estimate %f < exact %f for (%d,%d)", est, exact, v, w)
			}
			if est > bound*exact+1e-6 {
				t.Fatalf("estimate %f > %f·exact for (%d,%d)", est, bound, v, w)
			}
		}
	}
}

func TestLabelsAreLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(60, 0.06, 25, rng)
	sch := buildScheme(t, g, 3, 17)
	// O(log n) bits: 2 ids + distance + tree interval. Concretely under
	// 8·ceil(log2 n) bits.
	logn := 1
	for 1<<logn < g.N() {
		logn++
	}
	for v := 0; v < g.N(); v++ {
		if bits := sch.LabelBits(v); bits > 8*logn+16 {
			t.Fatalf("label of %d is %d bits; want O(log n) = ~%d", v, bits, 8*logn)
		}
	}
}

func TestSkeletonGraphIsMutualAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomConnected(40, 0.1, 10, rng)
	sch := buildScheme(t, g, 2, 19)
	ap := graph.AllPairs(g)
	sch.H.Edges(func(i, j int, w graph.Weight, _ int32) {
		u, v := int(sch.Skeleton[i]), int(sch.Skeleton[j])
		if w < ap.Dist(u, v) {
			t.Fatalf("skeleton edge {%d,%d} weight %d below true distance %d", u, v, w, ap.Dist(u, v))
		}
	})
}

func TestRoundBreakdownPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(35, 0.12, 12, rng)
	sch := buildScheme(t, g, 2, 23)
	r := sch.Rounds
	if r.ShortRangePDE <= 0 || r.SkeletonPDE <= 0 || r.Spanner <= 0 || r.TreeLabeling <= 0 {
		t.Fatalf("all round components must be positive: %+v", r)
	}
	if r.Total != r.ShortRangePDE+r.SkeletonPDE+r.Spanner+r.TreeLabeling {
		t.Fatalf("total %d != sum of parts %+v", r.Total, r)
	}
}

func TestTreeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomConnected(40, 0.1, 10, rng)
	sch := buildScheme(t, g, 2, 29)
	depths, perNode := sch.TreeStats()
	if len(depths) != len(sch.Trees) {
		t.Fatalf("got %d depths for %d trees", len(depths), len(sch.Trees))
	}
	// Every node is in at least the tree of its own skeleton node.
	for v, c := range perNode {
		if c < 1 {
			t.Fatalf("node %d participates in no tree", v)
		}
	}
}

func TestTableWordsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomConnected(30, 0.12, 10, rng)
	sch := buildScheme(t, g, 2, 31)
	for v := 0; v < g.N(); v++ {
		if sch.TableWords(v) <= 0 {
			t.Fatalf("node %d has empty tables", v)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.RandomConnected(10, 0.3, 5, rng)
	if _, _, err := Build(g, Params{K: 0, Epsilon: 0.5}, congest.Config{}, nil); err == nil {
		t.Fatal("expected k validation error")
	}
	if _, _, err := Build(g, Params{K: 2, Epsilon: 0}, congest.Config{}, nil); err == nil {
		t.Fatal("expected epsilon validation error")
	}
	empty := graph.NewBuilder(0).MustBuild()
	if _, _, err := Build(empty, Params{K: 2, Epsilon: 0.5}, congest.Config{}, nil); err == nil {
		t.Fatal("expected empty-graph error")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomConnected(30, 0.12, 10, rng)
	a := buildScheme(t, g, 2, 37)
	b := buildScheme(t, g, 2, 37)
	if len(a.Skeleton) != len(b.Skeleton) {
		t.Fatal("same seed produced different skeletons")
	}
	for v := 0; v < g.N(); v++ {
		if a.Labels[v] != b.Labels[v] {
			t.Fatalf("node %d labels differ: %+v vs %+v", v, a.Labels[v], b.Labels[v])
		}
	}
}

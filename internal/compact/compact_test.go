package compact

import (
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

func build(t *testing.T, g *graph.Graph, p Params) *Scheme {
	t.Helper()
	sch, _, err := Build(g, p, congest.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func assertAllPairsDeliveredWithStretch(t *testing.T, g *graph.Graph, sch *Scheme, slack float64) float64 {
	t.Helper()
	ap := graph.AllPairs(g)
	bound := float64(4*sch.K-3) + slack
	worst := 0.0
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if v == w {
				continue
			}
			rt, err := sch.Route(v, sch.Labels[w])
			if err != nil {
				t.Fatalf("route %d->%d: %v", v, w, err)
			}
			if rt.Path[len(rt.Path)-1] != w {
				t.Fatalf("route %d->%d ended at %d", v, w, rt.Path[len(rt.Path)-1])
			}
			if s := rt.Stretch(ap.Dist(v, w)); s > worst {
				worst = s
			}
		}
	}
	if worst > bound {
		t.Fatalf("worst stretch %f exceeds 4k-3+o(1) = %f", worst, bound)
	}
	return worst
}

func TestHierarchyDeliversWithStretchK2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(40, 0.1, 15, rng)
	sch := build(t, g, Params{K: 2, Epsilon: 0.25, C: 1.5, Seed: 3})
	worst := assertAllPairsDeliveredWithStretch(t, g, sch, 0.5)
	t.Logf("k=2 worst stretch %.3f", worst)
}

func TestHierarchyDeliversWithStretchK3(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(45, 0.09, 12, rng)
	sch := build(t, g, Params{K: 3, Epsilon: 0.25, C: 1.5, Seed: 5})
	worst := assertAllPairsDeliveredWithStretch(t, g, sch, 0.5)
	t.Logf("k=3 worst stretch %.3f", worst)
}

func TestTruncatedSimulateDelivers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(40, 0.1, 10, rng)
	sch := build(t, g, Params{
		K: 3, Epsilon: 0.25, C: 1.5, L0: 2,
		Strategy: StrategySimulate, Seed: 7,
	})
	worst := assertAllPairsDeliveredWithStretch(t, g, sch, 1.0)
	t.Logf("truncated simulate worst stretch %.3f", worst)
	if sch.Rounds.TruncatedSim <= 0 || sch.Rounds.SkeletonPDE <= 0 {
		t.Fatalf("truncation rounds missing: %+v", sch.Rounds)
	}
}

func TestTruncatedBroadcastDelivers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomConnected(40, 0.1, 10, rng)
	sch := build(t, g, Params{
		K: 3, Epsilon: 0.25, C: 1.5, L0: 2,
		Strategy: StrategyBroadcast, Seed: 7,
	})
	worst := assertAllPairsDeliveredWithStretch(t, g, sch, 1.0)
	t.Logf("truncated broadcast worst stretch %.3f", worst)
	// One-time pipelined broadcast of the skeleton graph.
	d := graph.HopDiameter(g)
	if sch.Rounds.TruncatedSim != sch.Gl0.M()+d {
		t.Fatalf("broadcast rounds %d, want m+D = %d", sch.Rounds.TruncatedSim, sch.Gl0.M()+d)
	}
}

func TestDistanceQueriesSoundAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(35, 0.12, 12, rng)
	ap := graph.AllPairs(g)
	k := 2
	sch := build(t, g, Params{K: k, Epsilon: 0.25, C: 1.5, Seed: 9})
	bound := float64(4*k-3) + 0.5
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if v == w {
				continue
			}
			a := sch.Answer(v, sch.Labels[w])
			if !a.OK {
				t.Fatalf("no estimate for (%d,%d)", v, w)
			}
			est, exact := a.Dist, float64(ap.Dist(v, w))
			if est < exact-1e-6 {
				t.Fatalf("estimate %f below exact %f for (%d,%d)", est, exact, v, w)
			}
			if est > bound*exact+1e-6 {
				t.Fatalf("estimate %f above %f·exact for (%d,%d)", est, bound, v, w)
			}
		}
	}
}

func TestLabelsAreKLogN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomConnected(50, 0.08, 20, rng)
	for _, k := range []int{2, 3, 4} {
		sch := build(t, g, Params{K: k, Epsilon: 0.5, C: 1, Seed: 11})
		logn := 1
		for 1<<logn < g.N() {
			logn++
		}
		for v := 0; v < g.N(); v++ {
			if bits := sch.LabelBits(v); bits > (k+2)*4*logn+32 {
				t.Fatalf("k=%d: label of %d is %d bits, want O(k log n)", k, v, bits)
			}
		}
	}
}

func TestBunchSizesShrinkWithLevel(t *testing.T) {
	// Higher levels have fewer sources, so bunches cannot blow up: total
	// table entries should be well below n per node for k >= 2 on a
	// large enough graph (the Õ(n^{1/k}) claim, checked as a sanity
	// bound with the log factors at this scale).
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(60, 0.07, 15, rng)
	sch := build(t, g, Params{K: 3, Epsilon: 0.5, C: 0.8, Seed: 13})
	for v := 0; v < g.N(); v++ {
		total := 0
		for l := 0; l < sch.K; l++ {
			total += sch.BunchSize[l][v]
		}
		if total > g.N() {
			t.Fatalf("node %d bunch total %d exceeds n", v, total)
		}
	}
}

func TestPivotChainIsMonotone(t *testing.T) {
	// wd'(v, s'_{l+1}(v)) >= wd'(v, s'_l(v)) cannot hold in general for
	// estimates, but pivots must at least exist level by level and sit in
	// the sampled sets.
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomConnected(40, 0.1, 10, rng)
	sch := build(t, g, Params{K: 3, Epsilon: 0.25, C: 1.5, Seed: 15})
	for l := 1; l < sch.K; l++ {
		for v := 0; v < g.N(); v++ {
			s := sch.Pivot[l][v]
			if s < 0 {
				t.Fatalf("node %d has no level-%d pivot", v, l)
			}
			if !sch.InLevel[l][s] {
				t.Fatalf("pivot %d of node %d not in S_%d", s, v, l)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomConnected(10, 0.3, 5, rng)
	bad := []Params{
		{K: 1, Epsilon: 0.5},
		{K: 2, Epsilon: 0},
		{K: 2, Epsilon: 0.5, L0: 5},
		// L0 = -1 would build L0 = 0's tables under another fingerprint.
		{K: 2, Epsilon: 0.5, L0: -1},
	}
	for i, p := range bad {
		if _, _, err := Build(g, p, congest.Config{}, nil); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	empty := graph.NewBuilder(0).MustBuild()
	if _, _, err := Build(empty, Params{K: 2, Epsilon: 0.5}, congest.Config{}, nil); err == nil {
		t.Fatal("expected empty-graph error")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.RandomConnected(30, 0.12, 10, rng)
	p := Params{K: 2, Epsilon: 0.5, C: 1, Seed: 17}
	a := build(t, g, p)
	b := build(t, g, p)
	for v := 0; v < g.N(); v++ {
		if a.Labels[v].Node != b.Labels[v].Node || len(a.Labels[v].Per) != len(b.Labels[v].Per) {
			t.Fatalf("labels differ at %d", v)
		}
		for i := range a.Labels[v].Per {
			if a.Labels[v].Per[i] != b.Labels[v].Per[i] {
				t.Fatalf("label component %d differs at node %d", i, v)
			}
		}
	}
}

func TestTableWordsAndShared(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomConnected(35, 0.12, 10, rng)
	sch := build(t, g, Params{
		K: 3, Epsilon: 0.25, C: 1.5, L0: 2,
		Strategy: StrategyBroadcast, Seed: 19,
	})
	for v := 0; v < g.N(); v++ {
		if sch.TableWords(v) <= 0 {
			t.Fatalf("node %d has no tables", v)
		}
	}
	if sch.SharedWords() <= 0 {
		t.Fatal("truncated scheme must have shared state")
	}
}

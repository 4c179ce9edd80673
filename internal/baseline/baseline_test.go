package baseline

import (
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
)

func allNodes(n int) []bool {
	m := make([]bool, n)
	for v := range m {
		m[v] = true
	}
	return m
}

func TestExactDetectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		n := 18 + 4*trial
		g := graph.RandomConnected(n, 0.12, 20, rng)
		src := make([]bool, n)
		for v := 0; v < n; v += 2 {
			src[v] = true
		}
		for _, sigma := range []int{1, 3, 6} {
			for _, h := range []int{1, 2, 4, 8} {
				p := ExactParams{IsSource: src, H: h, Sigma: sigma}
				res, err := ExactDetect(g, p, congest.Config{})
				if err != nil {
					t.Fatal(err)
				}
				want := ExactBruteForce(g, p)
				for v := range want {
					if len(res.Lists[v]) != len(want[v]) {
						t.Fatalf("h=%d σ=%d node %d: got %d entries want %d\n got=%v\nwant=%v",
							h, sigma, v, len(res.Lists[v]), len(want[v]), res.Lists[v], want[v])
					}
					for i := range want[v] {
						if res.Lists[v][i].Dist != want[v][i].Dist || res.Lists[v][i].Src != want[v][i].Src {
							t.Fatalf("h=%d σ=%d node %d entry %d: got %+v want %+v",
								h, sigma, v, i, res.Lists[v][i], want[v][i])
						}
					}
				}
			}
		}
	}
}

func TestExactDetectBudgetIsSigmaH(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(20, 0.15, 10, rng)
	p := ExactParams{IsSource: allNodes(20), H: 5, Sigma: 4}
	res, err := ExactDetect(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != 5*4+1 {
		t.Fatalf("budget = %d, want σh+1 = 21", res.Budget)
	}
}

func TestExactDetectOnFigure1NeedsSigmaHRounds(t *testing.T) {
	// The paper's Figure 1 claim, measured: on the gadget, the exact
	// algorithm's answer for the u-nodes cannot be correct before ~σ·h
	// rounds, because all σh pairs cross the dashed edge.
	h, sigma := 4, 4
	f := graph.NewFigure1(h, sigma)
	isSource := make([]bool, f.G.N())
	for _, s := range f.Sources {
		isSource[s] = true
	}
	want := ExactBruteForce(f.G, ExactParams{IsSource: isSource, H: h + 1, Sigma: sigma})
	correctAt := -1
	probe := func(round int, list func(v int) []WEntry) bool {
		for _, u := range f.UNode {
			got := list(u)
			if len(got) != len(want[u]) {
				return false
			}
			for i := range got {
				if got[i].Dist != want[u][i].Dist || got[i].Src != want[u][i].Src {
					return false
				}
			}
		}
		correctAt = round
		return true
	}
	p := ExactParams{IsSource: isSource, H: h + 1, Sigma: sigma, Probe: probe}
	res, err := ExactDetect(f.G, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if correctAt < 0 {
		t.Fatalf("never correct within budget %d", res.Budget)
	}
	// u_i's answers are column i: σ·h distinct pairs must cross one edge,
	// so at least σ·(h-1) rounds are needed (the first column is near).
	if correctAt < sigma*(h-1) {
		t.Fatalf("correct at round %d, impossibly fast (σh = %d)", correctAt, sigma*h)
	}
	// And each u_i's expected list is exactly its column.
	for i := 1; i <= h; i++ {
		u := f.UNode[i-1]
		wantSrcs, wantDist := f.ExpectedList(i)
		if len(want[u]) != sigma {
			t.Fatalf("u_%d brute-force list has %d entries", i, len(want[u]))
		}
		for j, e := range want[u] {
			if int(e.Src) != wantSrcs[j] || e.Dist != wantDist {
				t.Fatalf("u_%d entry %d = %+v, want src %d dist %d", i, j, e, wantSrcs[j], wantDist)
			}
		}
	}
}

func TestExactDetectValidation(t *testing.T) {
	g := graph.NewBuilder(2).AddEdge(0, 1, 1).MustBuild()
	if _, err := ExactDetect(g, ExactParams{IsSource: []bool{true}, H: 1, Sigma: 1}, congest.Config{}); err == nil {
		t.Fatal("expected size validation error")
	}
	if _, err := ExactDetect(g, ExactParams{IsSource: []bool{true, false}, H: -1, Sigma: 1}, congest.Config{}); err == nil {
		t.Fatal("expected negative-H error")
	}
	res, err := ExactDetect(g, ExactParams{IsSource: []bool{true, false}, H: 1, Sigma: 0}, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lists[0]) != 0 {
		t.Fatal("σ=0 should produce empty lists")
	}
}

func TestBellmanFordExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(30, 0.1, 25, rng)
	ap := graph.AllPairs(g)
	// Unbudgeted: a run that returns without error has quiesced.
	res, err := BellmanFordAPSP(g, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 30; v++ {
		for s := 0; s < 30; s++ {
			if res.Dist[v][s] != ap.Dist(v, s) {
				t.Fatalf("BF dist(%d,%d) = %d, want %d", v, s, res.Dist[v][s], ap.Dist(v, s))
			}
		}
	}
}

func TestBellmanFordParentsRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomConnected(25, 0.12, 15, rng)
	res, err := BellmanFordAPSP(g, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 25; v++ {
		for s := 0; s < 25; s++ {
			if v == s {
				continue
			}
			// Walk parents; total weight must equal the distance.
			cur, total := v, graph.Weight(0)
			for steps := 0; cur != s; steps++ {
				if steps > 25 {
					t.Fatalf("parent loop from %d to %d", v, s)
				}
				next := int(res.Parent[cur][s])
				e, ok := g.EdgeBetween(cur, next)
				if !ok {
					t.Fatalf("parent %d of %d toward %d not adjacent", next, cur, s)
				}
				total += e.W
				cur = next
			}
			if total != res.Dist[v][s] {
				t.Fatalf("parent path %d->%d weight %d != dist %d", v, s, total, res.Dist[v][s])
			}
		}
	}
}

func TestFloodingExactAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(25, 0.15, 20, rng)
	ap := graph.AllPairs(g)
	res, err := FloodingAPSP(g, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 25; v++ {
		for s := 0; s < 25; s++ {
			if res.Dist[v][s] != ap.Dist(v, s) {
				t.Fatalf("flooding dist(%d,%d) = %d, want %d", v, s, res.Dist[v][s], ap.Dist(v, s))
			}
		}
	}
	// Pipelined flooding completes in O(m + D) rounds.
	d := graph.HopDiameter(g)
	if res.Metrics.ActiveRounds > g.M()+d+2 {
		t.Fatalf("flooding took %d rounds for m=%d D=%d", res.Metrics.ActiveRounds, g.M(), d)
	}
	if res.TableWords != 3*g.M() {
		t.Fatalf("table words = %d, want %d", res.TableWords, 3*g.M())
	}
}

func TestRandomDelayPDEStillSound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 22
	g := graph.RandomConnected(n, 0.15, 15, rng)
	ap := graph.AllPairs(g)
	p := core.APSPParams(n, 0.5)
	res, err := RandomDelayPDE(g, p, 0, rng, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if len(res.Lists[v]) != n {
			t.Fatalf("node %d detected %d of %d", v, len(res.Lists[v]), n)
		}
		for _, e := range res.Lists[v] {
			exact := float64(ap.Dist(v, int(e.Src)))
			if e.Dist < exact-1e-6 || e.Dist > 1.5*exact+1e-6 {
				t.Fatalf("random-delay estimate %f for wd=%f out of [wd, 1.5wd]", e.Dist, exact)
			}
		}
	}
}

func TestRandomDelayDeterministicPerSeed(t *testing.T) {
	n := 18
	g := graph.RandomConnected(n, 0.2, 10, rand.New(rand.NewSource(7)))
	p := core.APSPParams(n, 1)
	a, err := RandomDelayPDE(g, p, 8, rand.New(rand.NewSource(42)), congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomDelayPDE(g, p, 8, rand.New(rand.NewSource(42)), congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.ActiveRounds != b.ActiveRounds {
		t.Fatal("same seed must reproduce the run exactly")
	}
	// The delay vector is drawn once, before the instances are built, so
	// the instance pool's width cannot move the priority-scheduled build.
	c, err := RandomDelayPDE(g, p, 8, rand.New(rand.NewSource(42)), congest.Config{Parallel: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatal("priority-scheduled build diverges between pool widths 1 and 3")
	}
}

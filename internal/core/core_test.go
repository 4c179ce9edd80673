package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

const tol = 1e-6

// listEntry returns list's entry for source s, if present.
func listEntry(list []Estimate, s int32) (Estimate, bool) {
	for _, e := range list {
		if e.Src == s {
			return e, true
		}
	}
	return Estimate{}, false
}

// checkSoundness verifies Definition 2.2's first condition on every output
// entry: estimates never undershoot the true distance.
func checkSoundness(t *testing.T, g *graph.Graph, res *Result, ap *graph.APSP) {
	t.Helper()
	for v := range res.Lists {
		prev := Estimate{Dist: -1, Src: -1}
		for _, e := range res.Lists[v] {
			exact := ap.Dist(v, int(e.Src))
			if exact == graph.Infinity {
				t.Fatalf("node %d has estimate for unreachable source %d", v, e.Src)
			}
			if e.Dist < float64(exact)-tol {
				t.Fatalf("estimate %f undershoots wd(%d,%d)=%d", e.Dist, v, e.Src, exact)
			}
			// Lists must be sorted by (Dist, Src).
			if e.Dist < prev.Dist || (e.Dist == prev.Dist && e.Src <= prev.Src) {
				t.Fatalf("node %d list not sorted: %v after %v", v, e, prev)
			}
			prev = e
		}
	}
}

// checkCompleteness verifies the output-list shape of Definition 2.2: if
// the list is short, every source within h hops appears with a
// (1+ε)-approximate estimate; if it is full, every source whose
// (1+ε)-inflated distance beats the list's last entry must appear.
func checkCompleteness(t *testing.T, g *graph.Graph, p Params, res *Result, ap *graph.APSP) {
	t.Helper()
	for v := range res.Lists {
		threshold := math.Inf(1)
		if len(res.Lists[v]) == p.Sigma && p.Sigma > 0 {
			threshold = res.Lists[v][len(res.Lists[v])-1].Dist
		}
		for s := 0; s < g.N(); s++ {
			if !p.IsSource[s] || int(ap.Hops(v, s)) > p.H {
				continue
			}
			exact := ap.Dist(v, s)
			bound := (1 + p.Epsilon) * float64(exact)
			e, ok := listEntry(res.Lists[v], int32(s))
			if bound < threshold-tol && !ok {
				t.Fatalf("node %d: source %d (wd=%d, (1+ε)wd=%f < last=%f) missing from list",
					v, s, exact, bound, threshold)
			}
			if ok && e.Dist > bound+tol {
				t.Fatalf("node %d: estimate %f for %d exceeds (1+ε)wd=%f", v, e.Dist, s, bound)
			}
		}
	}
}

func TestAPSPApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, eps := range []float64{0.25, 0.5, 1.0} {
		g := graph.RandomConnected(28, 0.12, 40, rng)
		ap := graph.AllPairs(g)
		res, err := Run(g, APSPParams(28, eps), congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkSoundness(t, g, res, ap)
		for v := 0; v < 28; v++ {
			if len(res.Lists[v]) != 28 {
				t.Fatalf("eps=%f: node %d detected %d of 28", eps, v, len(res.Lists[v]))
			}
			for _, e := range res.Lists[v] {
				exact := ap.Dist(v, int(e.Src))
				if e.Dist > (1+eps)*float64(exact)+tol {
					t.Fatalf("eps=%f: stretch %f > 1+ε for pair (%d,%d)",
						eps, e.Dist/float64(exact), v, e.Src)
				}
			}
		}
	}
}

func TestPartialEstimationSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 4; trial++ {
		n := 20 + 4*trial
		g := graph.RandomConnected(n, 0.12, 25, rng)
		ap := graph.AllPairs(g)
		for _, sigma := range []int{1, 3, 8} {
			for _, h := range []int{2, 5, n} {
				src := make([]bool, n)
				for v := 0; v < n; v += 2 {
					src[v] = true
				}
				p := Params{IsSource: src, H: h, Sigma: sigma, Epsilon: 0.5}
				res, err := Run(g, p, congest.Config{})
				if err != nil {
					t.Fatal(err)
				}
				checkSoundness(t, g, res, ap)
				checkCompleteness(t, g, p, res, ap)
			}
		}
	}
}

func TestUnweightedGraphSingleInstanceIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(30, 0.1, 1, rng) // all weights 1
	ap := graph.AllPairs(g)
	res, err := Run(g, APSPParams(30, 0.5), congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("unweighted graph should need 1 instance, got %d", len(res.Instances))
	}
	for v := range res.Lists {
		for _, e := range res.Lists[v] {
			if e.Dist != float64(ap.Dist(v, int(e.Src))) {
				t.Fatalf("unweighted estimates must be exact: %v vs %d", e, ap.Dist(v, int(e.Src)))
			}
		}
	}
}

func TestFlagsSurviveCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 24
	g := graph.RandomConnected(n, 0.15, 10, rng)
	src := make([]bool, n)
	flags := make([]uint8, n)
	for v := 0; v < n; v += 3 {
		src[v] = true
		flags[v] = uint8(1 + v%3)
	}
	p := Params{IsSource: src, Flags: flags, H: n, Sigma: n, Epsilon: 0.5}
	res, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Lists {
		for _, e := range res.Lists[v] {
			if e.Flag != flags[e.Src] {
				t.Fatalf("node %d: flag %d for source %d, want %d", v, e.Flag, e.Src, flags[e.Src])
			}
		}
	}
}

func TestRoundBudgetFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 20
	g := graph.RandomConnected(n, 0.15, 30, rng)
	p := Params{IsSource: APSPParams(n, 0.5).IsSource, H: 6, Sigma: 4, Epsilon: 0.5}
	res, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	num := numInstances(g.MaxWeight(), 0.5)
	if len(res.Instances) != num {
		t.Fatalf("instances = %d, want %d", len(res.Instances), num)
	}
	wantHP := hPrimeFor(6, 0.5)
	if res.HPrime != wantHP {
		t.Fatalf("h' = %d, want %d", res.HPrime, wantHP)
	}
	perInstance := wantHP + 4 + 1 // h' + min(σ,|S|) + 1
	if res.BudgetRounds != res.SetupRounds+num*perInstance {
		t.Fatalf("budget %d != setup %d + %d*%d", res.BudgetRounds, res.SetupRounds, num, perInstance)
	}
	if res.ActiveRounds > res.BudgetRounds {
		t.Fatalf("active %d > budget %d", res.ActiveRounds, res.BudgetRounds)
	}
}

func TestBroadcastBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 30
	g := graph.RandomConnected(n, 0.1, 20, rng)
	sigma := 4
	p := Params{IsSource: APSPParams(n, 1).IsSource, H: n, Sigma: sigma, Epsilon: 1}
	res, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Corollary 3.5: each node broadcasts at most (i_max+1)·σ(σ+1)/2.
	bound := int64(len(res.Instances)) * int64(sigma) * int64(sigma+1) / 2
	if got := slices.Max(res.BroadcastsByNode); got > bound {
		t.Fatalf("max broadcasts %d exceeds bound %d", got, bound)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(22, 0.15, 15, rng)
	p := APSPParams(22, 0.5)
	a, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, p, congest.Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.BudgetRounds != b.BudgetRounds || a.ActiveRounds != b.ActiveRounds || a.Messages != b.Messages {
		t.Fatalf("runs differ: (%d,%d,%d) vs (%d,%d,%d)",
			a.BudgetRounds, a.ActiveRounds, a.Messages, b.BudgetRounds, b.ActiveRounds, b.Messages)
	}
	for v := range a.Lists {
		if len(a.Lists[v]) != len(b.Lists[v]) {
			t.Fatalf("node %d lists differ in length", v)
		}
		for i := range a.Lists[v] {
			if a.Lists[v][i] != b.Lists[v][i] {
				t.Fatalf("node %d entry %d differs: %v vs %v", v, i, a.Lists[v][i], b.Lists[v][i])
			}
		}
	}
}

func TestValidation(t *testing.T) {
	g := graph.NewBuilder(2).AddEdge(0, 1, 1).MustBuild()
	bad := []Params{
		{IsSource: []bool{true}, H: 1, Sigma: 1, Epsilon: 0.5},
		{IsSource: []bool{true, true}, H: 1, Sigma: 1, Epsilon: 0},
		{IsSource: []bool{true, true}, H: 1, Sigma: 1, Epsilon: -1},
		{IsSource: []bool{true, true}, H: 1, Sigma: 1, Epsilon: math.Inf(1)},
		{IsSource: []bool{true, true}, H: -1, Sigma: 1, Epsilon: 0.5},
		{IsSource: []bool{true, true}, H: 1, Sigma: -1, Epsilon: 0.5},
	}
	for i, p := range bad {
		if _, err := Run(g, p, congest.Config{}); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestHPrimeAndInstanceHelpers(t *testing.T) {
	if hp := hPrimeFor(10, 1); hp != 40 {
		t.Fatalf("hPrimeFor(10, 1) = %d, want 40", hp)
	}
	if hp := hPrimeFor(10, 0.5); hp != 45 {
		t.Fatalf("hPrimeFor(10, 0.5) = %d, want 45", hp)
	}
	if ni := numInstances(1, 0.5); ni != 1 {
		t.Fatalf("numInstances(1) = %d, want 1", ni)
	}
	if ni := numInstances(100, 1); ni != 8 { // ceil(log2 100) = 7, +1
		t.Fatalf("numInstances(100, 1) = %d, want 8", ni)
	}
}

func TestSkipSetup(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.RandomConnected(15, 0.2, 10, rng)
	p := APSPParams(15, 1)
	p.SkipSetup = true
	res, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SetupRounds != 0 {
		t.Fatalf("SkipSetup left %d setup rounds", res.SetupRounds)
	}
}

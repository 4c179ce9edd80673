package core

import (
	"math"
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// TestRouterExternalForwardingLoop drives forwarding the way an external
// caller would — repeatedly asking NextHop and walking the returned edge —
// and checks the documented terminal semantics: a next hop equal to the
// current node means "delivered", occurs exactly at the destination, and
// is never an edge to traverse. Before the semantics were pinned down,
// NextHop(v, s) with v == s handed the caller v as its own next hop and
// the follow-up EdgeBetween(v, v) lookup failed.
func TestRouterExternalForwardingLoop(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(32, 6.0/32, 8, r)
	res, err := Run(g, APSPParams(g.N(), 0.5), congest.Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	router := NewRouter(g, res)
	n := g.N()
	for v := 0; v < n; v++ {
		for s := int32(0); s < int32(n); s++ {
			cur := v
			for steps := 0; ; steps++ {
				if steps > n*n {
					t.Fatalf("forwarding loop %d->%d did not terminate", v, s)
				}
				next, ok := router.NextHop(cur, s)
				if !ok {
					t.Fatalf("node %d has no entry for %d (from %d)", cur, s, v)
				}
				if next == cur {
					if cur != int(s) {
						t.Fatalf("terminal signal at %d before reaching %d (from %d)", cur, s, v)
					}
					break
				}
				if _, ok := g.EdgeBetween(cur, next); !ok {
					t.Fatalf("next hop %d is not a neighbor of %d (dest %d)", next, cur, s)
				}
				cur = next
			}
		}
	}
	// The terminal answer itself is (s, true).
	if next, ok := router.NextHop(3, 3); !ok || next != 3 {
		t.Fatalf("NextHop(3, 3) = (%d, %v), want terminal (3, true)", next, ok)
	}
}

// TestNumInstancesBoundaries pins the multiplicative-loop i_max against
// the definition (smallest i with (1+ε)^i ≥ w_max, plus one). The old
// ⌈log(w_max)/log(1+ε)⌉ form could round up at w_max near exact powers of
// 1+ε and build a spurious extra detection instance.
func TestNumInstancesBoundaries(t *testing.T) {
	cases := []struct {
		maxW graph.Weight
		eps  float64
		want int
	}{
		{0, 0.5, 1},
		{1, 0.5, 1},
		{2, 1, 2},
		{4, 1, 3}, // 2^2 = 4 exactly: no 4th instance
		{8, 1, 4}, // 2^3 = 8 exactly
		{1024, 1, 11},
		{1 << 40, 1, 41},
		{9, 2, 3},   // 3^2 = 9 exactly
		{27, 2, 4},  // 3^3 = 27 exactly
		{5, 0.5, 5}, // 1.5^4 = 5.0625 is the first base ≥ 5
		{7, 0.25, 10},
	}
	for _, c := range cases {
		if got := NumInstances(c.maxW, c.eps); got != c.want {
			t.Errorf("NumInstances(%d, %g) = %d, want %d", c.maxW, c.eps, got, c.want)
		}
	}
	// Small ε inside the regime Run accepts (≤ maxHierarchyInstances)
	// must stay exact: the log seed and Pow agree to well under one
	// iteration there.
	for _, eps := range []float64{1e-3, 1e-4} {
		num := NumInstances(16, eps)
		if math.Pow(1+eps, float64(num-1)) < 16 {
			t.Fatalf("NumInstances(16, %g) = %d: top base below w_max", eps, num)
		}
		if num >= 2 && math.Pow(1+eps, float64(num-2)) >= 16 {
			t.Fatalf("NumInstances(16, %g) = %d: spurious extra instance", eps, num)
		}
	}
	// Tiny-but-representable ε must answer in O(1) — not a multiplicative
	// spin of ~ln(w_max)/ε iterations — and land within Pow/Log float
	// divergence (relative ~1e-8) of the ideal depth. Run rejects these
	// hierarchies outright, so only totality and magnitude matter here.
	for _, eps := range []float64{1e-6, 1e-9, 1e-12} {
		num := NumInstances(16, eps)
		ideal := math.Log(16) / math.Log(1+eps)
		if rel := math.Abs(float64(num-1)-ideal) / ideal; rel > 1e-6 {
			t.Fatalf("NumInstances(16, %g) = %d, relative error %g vs ideal %g", eps, num, rel, ideal)
		}
	}
	// Degenerate ε below float64 resolution must not hang the loop, and
	// Run must reject it rather than build a hierarchy whose bases can
	// never reach w_max.
	if got := NumInstances(1<<20, 1e-18); got != 1 {
		t.Errorf("NumInstances(2^20, 1e-18) = %d, want degenerate clamp 1", got)
	}
	g := graph.Path(3, 4, rand.New(rand.NewSource(1)))
	if _, err := Run(g, APSPParams(g.N(), 1e-18), congest.Config{}); err == nil {
		t.Error("Run accepted epsilon below float64 resolution")
	}
	// And ε that would need an absurdly deep hierarchy errors fast instead
	// of grinding through billions of detection instances.
	wb := graph.NewBuilder(2)
	wb.AddEdge(0, 1, 16)
	g2 := wb.MustBuild()
	if _, err := Run(g2, APSPParams(g2.N(), 1e-9), congest.Config{}); err == nil {
		t.Error("Run accepted a hierarchy past maxHierarchyInstances")
	}
	// Invariant sweep: the returned count is minimal and sufficient under
	// the same math.Pow bases Run uses.
	for _, eps := range []float64{0.25, 0.5, 1, 2} {
		for maxW := graph.Weight(2); maxW <= 1000; maxW++ {
			num := NumInstances(maxW, eps)
			if math.Pow(1+eps, float64(num-1)) < float64(maxW) {
				t.Fatalf("NumInstances(%d, %g) = %d: top base below w_max", maxW, eps, num)
			}
			if num >= 2 && math.Pow(1+eps, float64(num-2)) >= float64(maxW) {
				t.Fatalf("NumInstances(%d, %g) = %d: spurious extra instance", maxW, eps, num)
			}
		}
	}
}

// TestRouteStretchZeroExact pins the +Inf semantics: a route with positive
// weight against a zero exact distance must not silently report stretch 1.
func TestRouteStretchZeroExact(t *testing.T) {
	rt := &Route{Weight: 7}
	if s := rt.Stretch(0); !math.IsInf(s, 1) {
		t.Fatalf("Stretch(0) with weight 7 = %v, want +Inf", s)
	}
	rt = &Route{Weight: 0}
	if s := rt.Stretch(0); s != 1 {
		t.Fatalf("Stretch(0) with weight 0 = %v, want 1", s)
	}
	rt = &Route{Weight: 6}
	if s := rt.Stretch(4); s != 1.5 {
		t.Fatalf("Stretch(4) with weight 6 = %v, want 1.5", s)
	}
}

// TestLargeSigmaThroughRun is detection's TestLargeSigmaCapDoesNotWrap
// seen from here: with the message cap computed in 32 bits, σ ≥ 46 341
// silenced every unit of every instance and Run returned each node only
// itself, with no error.
func TestLargeSigmaThroughRun(t *testing.T) {
	g := graph.Path(3, 4, rand.New(rand.NewSource(1)))
	p := Params{IsSource: []bool{true, true, true}, H: 3, Sigma: 50000, Epsilon: 0.5, CapMessages: true}
	res, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range res.Lists {
		if len(l) != 3 {
			t.Fatalf("node %d holds %d estimates, want 3: %+v", v, len(l), l)
		}
	}
}

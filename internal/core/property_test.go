package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pde/internal/congest"
	"pde/internal/graph"
)

// Property-based verification of Definition 2.2's two conditions over
// arbitrary random instances.

func TestPropertyEstimatesSoundAndComplete(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(20)
		g := graph.RandomConnected(n, 0.1+rng.Float64()*0.15, graph.Weight(1+rng.Intn(20)), rng)
		ap := graph.AllPairs(g)
		src := make([]bool, n)
		any := false
		for v := range src {
			if rng.Float64() < 0.5 {
				src[v] = true
				any = true
			}
		}
		if !any {
			src[0] = true
		}
		eps := []float64{0.25, 0.5, 1}[rng.Intn(3)]
		p := Params{
			IsSource: src, H: 1 + rng.Intn(n), Sigma: 1 + rng.Intn(n),
			Epsilon: eps,
		}
		res, err := Run(g, p, congest.Config{})
		if err != nil {
			return false
		}
		const tol = 1e-6
		for v := range res.Lists {
			threshold := -1.0
			if len(res.Lists[v]) == p.Sigma {
				threshold = res.Lists[v][len(res.Lists[v])-1].Dist
			}
			for _, e := range res.Lists[v] {
				// Soundness.
				if e.Dist < float64(ap.Dist(v, int(e.Src)))-tol {
					return false
				}
			}
			// Completeness: sources within h hops whose inflated distance
			// beats the list's tail must be present and well-estimated.
			for s := 0; s < n; s++ {
				if !src[s] || int(ap.Hops(v, s)) > p.H {
					continue
				}
				bound := (1 + eps) * float64(ap.Dist(v, s))
				e, ok := listEntry(res.Lists[v], int32(s))
				if threshold >= 0 && bound >= threshold-tol {
					continue // may legitimately be crowded out
				}
				if !ok || e.Dist > bound+tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// TestRepairMatchesColdRunAtScale holds FuzzDeltaChain's property on one
// churn-mixed chain at n = 10⁴, three batches of four nudges, where the
// halo is a sliver of the graph: every step must repair an instance. It
// needs a cold build of some seconds per step, so -short skips it.
func TestRepairMatchesColdRunAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("cold builds at n = 10⁴")
	}
	g, p := churnShape(t, 10000)
	nudges := step(graph.ChangeNudge, 4)
	if tally := deltaChain(t, g, p, 3, []byte{nudges, nudges, nudges}); tally.repairs != 3 {
		t.Fatalf("%d of 3 steps repaired an instance", tally.repairs)
	}
}

// churnShape is churn-mixed's spec at n nodes: a road grid with weights
// up to 1024, sources every third node, h = 16, σ = 8, ε = 0.5.
func churnShape(tb testing.TB, n int) (*graph.Graph, Params) {
	tb.Helper()
	g, err := graph.Generate("roadgrid", n, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	src := make([]bool, g.N())
	for v := 0; v < g.N(); v += 3 {
		src[v] = true
	}
	return g, Params{IsSource: src, H: 16, Sigma: 8, Epsilon: 0.5}
}

// BenchmarkDeltaBuild times one delta core.Build at churn-mixed's shape:
// four ±1 reweights from the previous generation, one worker. The
// updates are drawn ahead and applied in turn, each from the last
// result. -short skips n = 10⁴ and n = 10⁵, whose cold build, outside the
// timer, takes tens of seconds.
func BenchmarkDeltaBuild(b *testing.B) {
	for _, n := range []int{576, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n > 1000 && testing.Short() {
				b.Skip("n > 10³ under -short")
			}
			b.ReportAllocs()
			g, p := churnShape(b, n)
			prev, err := Run(g, p, congest.Config{})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			const chain = 16
			graphs := make([]*graph.Graph, chain)
			for k := range graphs {
				g = drawn(b, g, graph.ChangeNudge, 4, rng)
				graphs[k] = g
			}
			results := make([]*Result, chain+1)
			results[0] = prev
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % chain
				if k == 0 && i > 0 {
					b.StopTimer()
					results[0] = prev
					b.StartTimer()
				}
				if results[k+1], _, err = Build(graphs[k], p, congest.Config{}, results[k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

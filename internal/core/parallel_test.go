package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// buildFamilies is every generator family a build can target,
// each at a size small enough to build quickly but large enough for the
// instance pool and the sharded engine to engage.
func buildFamilies(seed int64) map[string]func() *graph.Graph {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
	return map[string]func() *graph.Graph{
		"random":    func() *graph.Graph { return graph.RandomConnected(56, 0.08, 24, rng()) },
		"geometric": func() *graph.Graph { return graph.Geometric(56, 0.25, 24, rng()) },
		"grid":      func() *graph.Graph { return graph.Grid(7, 8, 24, rng()) },
		"torus":     func() *graph.Graph { return graph.Torus(7, 8, 24, rng()) },
		"ring":      func() *graph.Graph { return graph.Ring(56, 24, rng()) },
		"internet":  func() *graph.Graph { return graph.Internet(56, 24, rng()) },
		"tree":      func() *graph.Graph { return graph.RandomTree(56, 24, rng()) },
		"powerlaw":  func() *graph.Graph { return graph.BarabasiAlbert(56, 3, 24, rng()) },
		"community": func() *graph.Graph { return graph.Community(56, 4, 0.2, 0.02, 24, rng()) },
		"roadgrid":  func() *graph.Graph { return graph.RoadGrid(7, 8, 0.3, 24, rng()) },
	}
}

// TestParallelBuildFingerprintAcrossFamilies is the PR 3 determinism
// property, run under -race in CI: for every generator family, building
// the PDE tables on a multi-worker instance pool must produce a
// byte-identical Result — same fingerprint AND structurally equal output —
// as the sequential build. The fingerprint is the check the bench build
// layer enforces; DeepEqual cross-validates that the fingerprint itself
// isn't hiding a divergence.
func TestParallelBuildFingerprintAcrossFamilies(t *testing.T) {
	for name, build := range buildFamilies(17) {
		t.Run(name, func(t *testing.T) {
			g := build()
			n := g.N()
			src := make([]bool, n)
			for v := 0; v < n; v += 2 {
				src[v] = true
			}
			p := Params{IsSource: src, H: 12, Sigma: 6, Epsilon: 0.5, CapMessages: true}
			seq, err := Run(g, p, congest.Config{})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, workers := range []int{2, 4, 7} {
				par, err := Run(g, p, congest.Config{Parallel: true, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if sf, pf := seq.Fingerprint(), par.Fingerprint(); sf != pf {
					t.Fatalf("workers=%d: fingerprint %016x != sequential %016x", workers, pf, sf)
				}
				if !reflect.DeepEqual(seq.Lists, par.Lists) {
					t.Fatalf("workers=%d: output lists diverge despite equal fingerprints", workers)
				}
				if !reflect.DeepEqual(seq.BroadcastsByNode, par.BroadcastsByNode) {
					t.Fatalf("workers=%d: broadcast accounting diverges", workers)
				}
				for i := range seq.Instances {
					if !reflect.DeepEqual(seq.Instances[i].Det.Lists, par.Instances[i].Det.Lists) {
						t.Fatalf("workers=%d: instance %d detection lists diverge", workers, i)
					}
				}
			}
		})
	}
}

// TestParallelBuildUsesInstancePool pins that a parallel config actually
// engages the instance pool at the expected width. Output determinism
// means a regression that quietly built everything sequentially would
// pass every fingerprint check; the hook makes the scheduling decision
// itself observable.
func TestParallelBuildUsesInstancePool(t *testing.T) {
	g := graph.RandomConnected(40, 0.1, 32, rand.New(rand.NewSource(5)))
	p := APSPParams(40, 0.5) // w_max ≤ 32, ε=0.5: at least 9 instances
	var widths []int
	poolWidthHook = func(outer int) { widths = append(widths, outer) }
	defer func() { poolWidthHook = nil }()

	if _, err := Run(g, p, congest.Config{Parallel: true, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if len(widths) != 1 || widths[0] != 4 {
		t.Fatalf("parallel build resolved pool widths %v, want [4]", widths)
	}
	widths = nil
	if _, err := Run(g, p, congest.Config{}); err != nil {
		t.Fatal(err)
	}
	if len(widths) != 1 || widths[0] != 1 {
		t.Fatalf("sequential build resolved pool widths %v, want [1]", widths)
	}
}

// TestFingerprintDetectsTampering guards the guard: a fingerprint that
// failed to cover the output lists, the accounting or the instance tables
// would let a real divergence slip through every check built on it.
func TestFingerprintDetectsTampering(t *testing.T) {
	g := graph.RandomConnected(32, 0.1, 16, rand.New(rand.NewSource(3)))
	p := APSPParams(32, 0.5)
	res, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Fingerprint()

	res.Lists[5][0].Dist += 1
	if res.Fingerprint() == base {
		t.Error("fingerprint ignores output-list distances")
	}
	res.Lists[5][0].Dist -= 1

	res.Messages++
	if res.Fingerprint() == base {
		t.Error("fingerprint ignores message accounting")
	}
	res.Messages--

	res.Instances[0].Det.Lists[3] = res.Instances[0].Det.Lists[3][:0]
	if res.Fingerprint() == base {
		t.Error("fingerprint ignores instance detection lists")
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pde/internal/congest"
	"pde/internal/detection"
	"pde/internal/graph"
)

// buildFamilies is every generator family a build can target,
// each at a size small enough to build quickly but with enough rounding
// instances for the instance pool to engage.
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

// sameAccounting fails unless a and b did the same work: the fingerprint
// names outputs only, so the width-determinism tests hold the accounting
// field by field.
func sameAccounting(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.ActiveRounds != b.ActiveRounds || a.Messages != b.Messages || a.MessageBits != b.MessageBits {
		t.Fatalf("%s: accounting (%d rounds, %d messages, %d bits) != (%d, %d, %d)", label,
			b.ActiveRounds, b.Messages, b.MessageBits, a.ActiveRounds, a.Messages, a.MessageBits)
	}
	if !reflect.DeepEqual(a.BroadcastsByNode, b.BroadcastsByNode) {
		t.Fatalf("%s: broadcast accounting diverges", label)
	}
}

// TestParallelBuildFingerprintAcrossFamilies is the PR 3 determinism
// property, run under -race in CI: for every generator family, building
// the PDE tables on a multi-worker instance pool must produce a
// byte-identical Result — same fingerprint AND structurally equal output —
// as a pool of width 1. The fingerprint is the check the bench build
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
			p := Params{IsSource: src, H: 12, Sigma: 6, Epsilon: 0.5}
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
				sameAccounting(t, fmt.Sprintf("workers=%d", workers), seq, par)
				for i := range seq.Instances {
					if !reflect.DeepEqual(detLists(seq.Instances[i].Det), detLists(par.Instances[i].Det)) {
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
	poolWidthHook = func(width int) { widths = append(widths, width) }
	defer func() { poolWidthHook = nil }()

	res, err := Run(g, p, congest.Config{Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(widths) != 1 || widths[0] != 4 {
		t.Fatalf("parallel build resolved pool widths %v, want [4]", widths)
	}
	// The pool is sized by the instances to re-detect: none, on a rebuild
	// of the same graph from its own result.
	widths = nil
	if _, ps, err := Build(g, p, congest.Config{Parallel: true, Workers: 4}, res); err != nil || ps.InstancesRebuilt != 0 {
		t.Fatalf("rebuild from its own result: %+v, %v", ps, err)
	}
	if len(widths) != 1 || widths[0] != 0 {
		t.Fatalf("a rebuild that re-detects nothing resolved pool widths %v, want [0]", widths)
	}
	widths = nil
	if _, err := Run(g, p, congest.Config{}); err != nil {
		t.Fatal(err)
	}
	if len(widths) != 1 || widths[0] != 1 {
		t.Fatalf("sequential build resolved pool widths %v, want [1]", widths)
	}
}

// TestHugePoolWidthIsCapped: a requested width far beyond the instance
// count costs what a small one does. The pool is min(width, instances)
// goroutines and no per-worker state is sized by the request, so a
// build_workers of 2²² (reachable from -shards and /v1/rebuild)
// neither allocates per requested worker nor changes the output.
func TestHugePoolWidthIsCapped(t *testing.T) {
	g := graph.RandomConnected(64, 0.1, 32, rand.New(rand.NewSource(7)))
	p := APSPParams(64, 0.5)
	build := func(workers int) (uint64, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(g, p, congest.Config{Parallel: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		runtime.ReadMemStats(&after)
		return res.Fingerprint(), after.TotalAlloc - before.TotalAlloc
	}
	smallFP, small := build(2)
	hugeFP, huge := build(1 << 22)
	t.Logf("allocated %d bytes at width 2, %d at width 2^22", small, huge)
	if hugeFP != smallFP {
		t.Fatalf("fingerprint %016x at width 2^22, %016x at width 2", hugeFP, smallFP)
	}
	if huge > 2*small {
		t.Fatalf("width 2^22 allocated %d bytes, width 2 %d: scratch scales with the request", huge, small)
	}
}

// TestLowestIndexErrorUnderLargestFirstClaims: the pool claims the
// instance with the most relay cells first — on churn-mixed's shape
// (roadgrid, w_max 1024, h 16) not instance 0 — yet when every instance
// fails, Build reports instance 0's error at every width, as it did when
// claims went in index order.
func TestLowestIndexErrorUnderLargestFirstClaims(t *testing.T) {
	g, err := graph.Generate("roadgrid", 576, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	src := make([]bool, g.N())
	for v := range src {
		src[v] = v%4 == 0
	}
	p := Params{IsSource: src, H: 16, Sigma: 8, Epsilon: 0.5, SkipSetup: true}
	insts := make([]*Instance, numInstances(g.MaxWeight(), p.Epsilon))
	todo := make([]int, len(insts))
	for i := range insts {
		dp := detection.Params{H: hPrimeFor(p.H, p.Epsilon), Base: math.Pow(1+p.Epsilon, float64(i))}
		insts[i], todo[i] = &Instance{Base: dp.Base, cells: relayCells(g, &dp)}, i
	}
	claimOrder(todo, insts)
	t.Logf("claim order %v", todo)
	if todo[0] == 0 {
		t.Fatalf("claim order %v starts at instance 0: the test needs a larger one first", todo)
	}
	for _, workers := range []int{1, 2, 4, 64} {
		// One bit of bandwidth: every instance fails on its first message.
		_, err := Run(g, p, congest.Config{B: 1, Parallel: true, Workers: workers})
		if err == nil || !strings.HasPrefix(err.Error(), "core: instance 0: ") {
			t.Fatalf("workers=%d: err=%v, want instance 0's", workers, err)
		}
	}
}

// TestFingerprintDetectsTampering guards the guard: a fingerprint that
// failed to cover the output lists, the round budget or the instance
// tables would let a real divergence slip through every check built on
// it. Lists and instance tables enter through digests memoized on first
// use, so each tampering is planted in a fresh result, before its first
// fingerprint. The work accounting is not an output — a repaired instance
// does less of it — and moving it leaves the fingerprint alone.
func TestFingerprintDetectsTampering(t *testing.T) {
	g := graph.RandomConnected(32, 0.1, 16, rand.New(rand.NewSource(3)))
	p := APSPParams(32, 0.5)
	build := func() *Result {
		res, err := Run(g, p, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := build().Fingerprint()

	fresh := build()
	fresh.Lists[5][0].Dist += 1
	if fresh.Fingerprint() == base {
		t.Error("fingerprint ignores output-list distances")
	}

	fresh = build()
	fresh.BudgetRounds++
	if fresh.Fingerprint() == base {
		t.Error("fingerprint ignores the round budget")
	}

	fresh = build()
	fresh.Instances[0].Det.Pages[0].Vias[0] ^= 1
	if fresh.Fingerprint() == base {
		t.Error("fingerprint ignores instance detection lists")
	}

	fresh = build()
	fresh.Messages++
	fresh.ActiveRounds++
	fresh.BroadcastsByNode[0]++
	if fresh.Fingerprint() != base {
		t.Error("fingerprint covers the work accounting, which a repair changes")
	}
}

package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// arenaGraph is a road grid whose first rounding instances put some
// twenty thousand relay cells in a build worker's detection.Arena (a few
// MB of cells and list windows), with a single source so that the Result
// itself stays a few hundred KB.
func arenaGraph(t *testing.T) (*graph.Graph, Params) {
	t.Helper()
	g, err := graph.Generate("roadgrid", 400, 64, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	src := make([]bool, g.N())
	src[0] = true
	return g, Params{IsSource: src, H: 32, Sigma: 16, Epsilon: 0.5, CapMessages: true}
}

// TestParallelBuildArenaPerWorker: every pool worker runs its instances
// through an arena of its own, so a parallel build shares no unit storage
// between goroutines (CI runs this under -race) and is fingerprint-equal
// to the sequential build at every width.
func TestParallelBuildArenaPerWorker(t *testing.T) {
	g, p := arenaGraph(t)
	for v := 0; v < g.N(); v += 3 {
		p.IsSource[v] = true
	}
	seq, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
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
	}
}

// liveHeap returns the heap in use after one collection. One, not two:
// that is how the benchmark reads heap_mb after the last build, and a
// sync.Pool keeps what it was handed through one collection (its victim
// cache) and loses it in the second.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAllocsPerRunBuild holds what a build costs the allocator and what
// it leaves behind. A worker's arena is reused from instance to instance,
// so what a sequential build allocates is the engine's per node and
// instance and a handful per instance, nothing per cell; and the arenas
// die with Build — the benchmark's heap_mb is read one collection after
// the last build, where a cache that outlives Build (a sync.Pool, a
// package-level free list) shows up as several times the heap.
func TestAllocsPerRunBuild(t *testing.T) {
	// 20 790 measured: 400 nodes × 12 instances × the engine's four per
	// node, and a few dozen per instance. One more per node and instance
	// fails it.
	const buildBudget = 23000
	// ~340 KB measured, the Result; one worker's arena is over 2 MB.
	const retainBudget = 1 << 20
	g, p := arenaGraph(t)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Run(g, p, congest.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per sequential build", allocs)
	if allocs > buildBudget {
		t.Fatalf("a sequential build allocated %.0f times, budget %d", allocs, buildBudget)
	}
	for _, workers := range []int{1, 2, 4} {
		before := liveHeap()
		res, err := Run(g, p, congest.Config{Parallel: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		after := liveHeap()
		runtime.KeepAlive(res)
		t.Logf("workers=%d: live heap %d -> %d bytes", workers, before, after)
		if after > before+retainBudget {
			t.Fatalf("workers=%d: a build left %d bytes live, budget %d: is an arena retained?", workers, after-before, retainBudget)
		}
	}
}

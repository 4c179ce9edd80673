package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"pde/internal/congest"
	"pde/internal/detection"
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
	return g, Params{IsSource: src, H: 32, Sigma: 16, Epsilon: 0.5}
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
// it leaves behind. A worker's arena — the detection units and the engine
// under them — is reused from instance to instance, so what a sequential
// build allocates is a handful per instance (its Result and Metrics) and
// the setup and the row pass per node, nothing per cell and nothing per
// instance and node; and the arenas die with Build — the
// benchmark's heap_mb is read one collection after the last build, where
// a cache that outlives Build (a sync.Pool, a package-level free list)
// shows up as several times the heap.
func TestAllocsPerRunBuild(t *testing.T) {
	// 2 084 measured for 400 nodes and 12 instances: the setup BFS tree
	// and aggregate and the lists are per node, each instance a
	// dozen. It was 20 790 while the engine allocated four times per node
	// and instance; one more per node and instance fails it.
	const buildBudget = 2450
	// 234 568 bytes measured, the Result, plus 25 % (it was ~340 KB while
	// detection entries took 16 bytes and a slice header per node and
	// instance); one worker's arena is over 2 MB.
	const retainBudget = 234_568 * 5 / 4
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

// retained is what one generation keeps, in bytes, by component: its
// instances' detection pages (page headers, offsets and both columns) and
// SelfEmits, its output Lists (headers and estimates), its table (page
// pointers, headers and columns) and its fingerprint digests (a word per
// node and instance and one per row of Lists).
type retained struct {
	pages, selfEmits, lists, table, digests int64
}

func (r retained) total() int64 { return r.pages + r.selfEmits + r.lists + r.table + r.digests }

// retainedBytes sizes res's components from their lengths, a page shared
// between instances counted once.
func retainedBytes(res *Result) retained {
	var r retained
	seen := make(map[*[detection.PageRows + 1]int32]bool)
	for _, inst := range res.Instances {
		det := inst.Det
		r.pages += int64(len(det.Pages)) * int64(unsafe.Sizeof(detection.Page{}))
		for _, pg := range det.Pages {
			if !seen[pg.Off] {
				seen[pg.Off] = true
				r.pages += int64(unsafe.Sizeof(*pg.Off)) + 8*int64(len(pg.Keys)) + 4*int64(len(pg.Vias))
			}
		}
		r.selfEmits += 4 * int64(len(det.SelfEmits))
		if d := inst.digest.Load(); d != nil {
			r.digests += 8 * int64(len(d.rows))
		}
	}
	r.lists = int64(len(res.Lists)) * int64(unsafe.Sizeof([]Estimate(nil)))
	for _, l := range res.Lists {
		r.lists += int64(len(l)) * int64(unsafe.Sizeof(Estimate{}))
	}
	for _, pg := range res.Table.Pages {
		k := int64(len(pg.Srcs))
		r.table += 8 + int64(unsafe.Sizeof(*pg)) + k*(4+8+4+4+1)
	}
	if rows := res.rows.Load(); rows != nil {
		r.digests += 8 * int64(len(*rows))
	}
	return r
}

// TestAllocsPerRunRetainedHeap holds what one fingerprinted generation
// keeps live: each component of retainedBytes, the live heap the build
// leaves behind, and the gap between the two — what no component names:
// headers, instance and setup records, each run's Metrics — within 15 %
// of what this layout measured. One
// generation is build-sparse's (a road grid of 1 024 nodes, maxw 64,
// h = 32, σ = 16, every third node a source, ε = 0.5, seed 1); the other,
// churn-mixed's shape at n = 10⁴, needs a cold build of some seconds, so
// -short skips it. The instance lists are the largest part. As 16-byte
// entries under a slice header per node and instance they were 3.32 MB
// of build-sparse's 4.67 MB live heap (19.9 of 31.5 MB at n = 10⁴), with
// 8-byte SelfEmits; in pages of 12-byte entries they are 2.37 MB of
// 3.72 MB (13.0 of 23.9 MB). The gap was 0.34 MB (4.07 MB at n = 10⁴)
// while every run's Metrics kept a send and a broadcast count per node;
// without them the live heap is 3.56 MB (20.8 MB). The live heap is read
// as what dropping the generation frees, so a package run and a -run
// pattern log the same figures.
func TestAllocsPerRunRetainedHeap(t *testing.T) {
	sparse := func(t *testing.T) (*graph.Graph, Params) {
		g, err := graph.Generate("roadgrid", 1024, 64, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		src := make([]bool, g.N())
		for v := 0; v < g.N(); v += 3 {
			src[v] = true
		}
		return g, Params{IsSource: src, H: 32, Sigma: 16, Epsilon: 0.5}
	}
	for _, c := range []struct {
		name  string
		short bool
		shape func(*testing.T) (*graph.Graph, Params)
		want  retained
		live  int64
		gap   int64
	}{
		{"build-sparse", true, sparse, retained{2366520, 49152, 417792, 439310, 106496}, 3562872, 183602},
		{"churn-n10000", false, func(t *testing.T) (*graph.Graph, Params) { return churnShape(t, 10000) },
			retained{12992632, 760000, 2160000, 2312192, 1600000}, 20777656, 952832},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !c.short && testing.Short() {
				t.Skip("a cold build at n = 10⁴")
			}
			g, p := c.shape(t)
			// Both readings follow the build, and g and p stay live, so
			// their difference is the generation alone.
			var got retained
			held := func() uint64 {
				res, err := Run(g, p, congest.Config{})
				if err != nil {
					t.Fatal(err)
				}
				res.Fingerprint()
				got = retainedBytes(res)
				h := liveHeap()
				runtime.KeepAlive(res)
				return h
			}()
			live := int64(held) - int64(liveHeap())
			runtime.KeepAlive(g)
			runtime.KeepAlive(p)
			t.Logf("instance pages %d, SelfEmits %d, Lists %d, table %d, digests %d: %d bytes; live heap %d bytes",
				got.pages, got.selfEmits, got.lists, got.table, got.digests, got.total(), live)
			for _, k := range []struct {
				name      string
				got, want int64
			}{
				{"instance pages", got.pages, c.want.pages},
				{"SelfEmits", got.selfEmits, c.want.selfEmits},
				{"Lists", got.lists, c.want.lists},
				{"table", got.table, c.want.table},
				{"digests", got.digests, c.want.digests},
				{"live heap", live, c.live},
				{"live heap beyond the components", live - got.total(), c.gap},
			} {
				if budget := k.want + k.want*15/100; k.got > budget {
					t.Errorf("%s: %d bytes, budget %d (%d measured, plus 15 %%)", k.name, k.got, budget, k.want)
				}
			}
		})
	}
}

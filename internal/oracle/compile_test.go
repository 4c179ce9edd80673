package oracle

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pde/internal/core"
	"pde/internal/detection"
	"pde/internal/graph"
)

// compileBySort is the Compile this package shipped until the linear
// pass replaced it: gather every instance's candidates for a node, sort
// them by (source, distance, instance) and keep the first of each source.
// It stays as the differential reference.
func compileBySort(res *core.Result) *Oracle {
	n := len(res.Lists)
	o := &Oracle{n: n, off: make([]int64, n+1)}

	type cand struct {
		src  int32
		dist float64
		via  int32
		inst int32
		flag uint8
	}
	var buf []cand
	for v := 0; v < n; v++ {
		buf = buf[:0]
		for i, inst := range res.Instances {
			for _, e := range inst.Det.Lists[v] {
				buf = append(buf, cand{
					src:  e.Src,
					dist: float64(e.Dist) * inst.Base,
					via:  e.Via,
					inst: int32(i),
					flag: e.Flag,
				})
			}
		}
		sort.Slice(buf, func(a, b int) bool {
			if buf[a].src != buf[b].src {
				return buf[a].src < buf[b].src
			}
			if buf[a].dist != buf[b].dist {
				return buf[a].dist < buf[b].dist
			}
			return buf[a].inst < buf[b].inst
		})
		for k := range buf {
			if k > 0 && buf[k].src == buf[k-1].src {
				continue
			}
			o.srcs = append(o.srcs, buf[k].src)
			o.dists = append(o.dists, buf[k].dist)
			o.vias = append(o.vias, buf[k].via)
			o.insts = append(o.insts, buf[k].inst)
			o.flags = append(o.flags, buf[k].flag)
		}
		o.off[v+1] = int64(len(o.srcs))
	}
	return o
}

// requireSameTables fails unless the two oracles hold the same six
// arrays, slice for slice.
func requireSameTables(t *testing.T, name string, got, want *Oracle) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: n = %d, want %d", name, got.n, want.n)
	}
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"off", got.off, want.off},
		{"srcs", got.srcs, want.srcs},
		{"dists", got.dists, want.dists},
		{"vias", got.vias, want.vias},
		{"insts", got.insts, want.insts},
		{"flags", got.flags, want.flags},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s differs from the sort-based reference", name, c.field)
		}
	}
}

// TestCompileMatchesSortReference is the differential test of the linear
// Compile against the sort-based one it replaced, on every generator
// family, partial and APSP parameters, three seeds each.
func TestCompileMatchesSortReference(t *testing.T) {
	for _, topo := range graph.GeneratorNames() {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := graph.Generate(topo, 40, 24, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				kind   string
				params core.Params
			}{
				{"partial", sweepParams(g.N(), 10, 5, 0.5)},
				{"apsp", core.APSPParams(g.N(), 0.5)},
			} {
				name := fmt.Sprintf("%s/%s/seed%d", topo, c.kind, seed)
				res := buildResult(t, g, c.params)
				got := Compile(res)
				if got.Entries() == 0 {
					t.Fatalf("%s: compiled no entries", name)
				}
				requireSameTables(t, name, got, compileBySort(res))
			}
		}
	}
}

// TestCompileHandBuilt pins the combine's corner cases on a result small
// enough to read: a cross-instance tie (the lower instance wins), a later
// instance that is strictly smaller (it wins), a source only one instance
// detected, an instance with an empty list, and a node with no entries.
func TestCompileHandBuilt(t *testing.T) {
	inst := func(base float64, lists ...[]detection.Entry) *core.Instance {
		return &core.Instance{Base: base, Det: &detection.Result{Lists: lists}}
	}
	res := &core.Result{
		Instances: []*core.Instance{
			// node 0, node 1, node 2, node 3
			inst(1, []detection.Entry{{Dist: 4, Src: 3, Via: 1, Flag: 1}, {Dist: 8, Src: 1, Via: 1}}, nil, nil, nil),
			inst(2, []detection.Entry{{Dist: 2, Src: 3, Via: 2, Flag: 2}, {Dist: 3, Src: 1, Via: 2}}, []detection.Entry{{Dist: 1, Src: 2, Via: 2}}, nil, nil),
			inst(4, []detection.Entry{{Dist: 1, Src: 3, Via: 3, Flag: 3}, {Dist: 5, Src: 0, Via: -1}}, nil, nil, []detection.Entry{{Dist: 0, Src: 3, Via: -1}}),
		},
		Lists: [][]core.Estimate{
			{{Dist: 4, Src: 3, Via: 1, Instance: 0, Flag: 1}}, // σ-capped to one entry
			{{Dist: 2, Src: 2, Via: 2, Instance: 1}},
			nil,
			{{Dist: 0, Src: 3, Via: -1, Instance: 2}},
		},
	}
	o := Compile(res)
	requireSameTables(t, "hand-built", o, compileBySort(res))

	want := map[int][]core.Estimate{
		0: {
			{Dist: 20, Src: 0, Via: -1, Instance: 2},        // one instance only
			{Dist: 6, Src: 1, Via: 2, Instance: 1},          // 3·2 < 8·1: the later instance is strictly smaller
			{Dist: 4, Src: 3, Via: 1, Instance: 0, Flag: 1}, // 4·1 = 2·2 = 1·4: lowest instance
		},
		1: {{Dist: 2, Src: 2, Via: 2, Instance: 1}}, // instances 0 and 2 hold an empty list here
		2: nil,
		3: {{Dist: 0, Src: 3, Via: -1, Instance: 2}},
	}
	for v := 0; v < 4; v++ {
		var got []core.Estimate
		sourcesOf(o, v, func(e core.Estimate) { got = append(got, e) })
		if !reflect.DeepEqual(got, want[v]) {
			t.Fatalf("node %d: compiled %+v, want %+v", v, got, want[v])
		}
	}
}

// churnMixedResult and serveBulkResult build what BenchmarkCompile and the
// allocation guard compile: the partial roadgrid tables of the benchmark's
// churn-mixed workload and the APSP tables of serve-bulk.
func churnMixedResult(tb testing.TB) *core.Result {
	g, err := graph.Generate("roadgrid", 576, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return buildResult(tb, g, sweepParams(g.N(), 16, 8, 0.5))
}

func serveBulkResult(tb testing.TB) *core.Result {
	g, err := graph.Generate("random", 384, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return buildResult(tb, g, core.APSPParams(g.N(), 1))
}

var compileSink *Oracle

// BenchmarkCompile times one full Compile at the two shapes the
// benchmark of record pays it at.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func(testing.TB) *core.Result
	}{
		{"churn-mixed", churnMixedResult},
		{"serve-bulk", serveBulkResult},
	} {
		b.Run(c.name, func(b *testing.B) {
			res := c.build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compileSink = Compile(res)
			}
		})
	}
}

// TestAllocsPerRunCompile bounds Compile's allocations on the
// churn-mixed-shaped result by a constant: the header, the offsets, the
// two stamp arrays, the row buffer and the growth steps of the five CSR
// arrays (88 in all) — nothing per node. The sort-based body allocated
// sort.Slice's swapper and closure for each of the 576 (1818).
func TestAllocsPerRunCompile(t *testing.T) {
	res := churnMixedResult(t)
	const bound = 200
	if n := len(res.Lists); n < 2*bound {
		t.Fatalf("result has %d nodes; the bound of %d would not notice a per-node allocation", n, bound)
	}
	allocs := testing.AllocsPerRun(5, func() { compileSink = Compile(res) })
	if allocs > bound {
		t.Fatalf("Compile allocates %.0f times per call, want <= %d", allocs, bound)
	}
}

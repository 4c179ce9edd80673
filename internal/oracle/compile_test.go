package oracle

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"pde/internal/core"
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

// TestCompileMatchesSortReference is the differential test of the
// table core.Build lays out, which Compile serves, against the sort-based
// compile it replaced, on every generator family, partial and APSP
// parameters, three seeds each. Each result's lists are the reference's
// rows sorted by (Dist, Src) and cut at σ.
func TestCompileMatchesSortReference(t *testing.T) {
	for _, topo := range strings.Split(graph.GeneratorList(), " | ") {
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
				ref := compileBySort(res)
				requireSameTables(t, name, got, ref)
				for v := range res.Lists {
					var row []core.Estimate
					sourcesOf(ref, v, func(e core.Estimate) { row = append(row, e) })
					slices.SortFunc(row, func(a, b core.Estimate) int {
						return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Src, b.Src))
					})
					if want := row[:min(c.params.Sigma, len(row))]; !slices.Equal(res.Lists[v], want) {
						t.Fatalf("%s: node %d lists %+v, want the reference row's σ smallest %+v", name, v, res.Lists[v], want)
					}
				}
			}
		}
	}
}

// TestAllocsPerRunCompile: Compile shares the result's table, so it
// allocates the oracle's header and nothing else.
func TestAllocsPerRunCompile(t *testing.T) {
	g, err := graph.Generate("roadgrid", 144, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	res := buildResult(t, g, sweepParams(g.N(), 16, 8, 0.5))
	var o *Oracle
	allocs := testing.AllocsPerRun(5, func() { o = Compile(res) })
	if allocs > 1 {
		t.Fatalf("Compile allocates %.0f times per call, want 1", allocs)
	}
	if o.Entries() == 0 {
		t.Fatal("compiled no entries")
	}
}

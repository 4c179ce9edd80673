package oracle

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"pde/internal/core"
	"pde/internal/detection"
	"pde/internal/graph"
)

// compileBySort is the Compile this package shipped until the linear
// pass replaced it: gather every instance's candidates for a node, sort
// them by (source, distance, instance) and keep the first of each source.
// It stays as the differential reference, one row per node.
func compileBySort(res *core.Result) [][]core.Estimate {
	rows := make([][]core.Estimate, len(res.Lists))
	var buf []core.Estimate
	var det []detection.Entry
	for v := range rows {
		buf = buf[:0]
		for i, inst := range res.Instances {
			det = inst.Det.List(v, det)
			for _, e := range det {
				buf = append(buf, core.Estimate{
					Src:      e.Src,
					Dist:     float64(e.Dist) * inst.Base,
					Via:      e.Via,
					Instance: int32(i),
					Flag:     e.Flag,
				})
			}
		}
		sort.Slice(buf, func(a, b int) bool {
			if buf[a].Src != buf[b].Src {
				return buf[a].Src < buf[b].Src
			}
			if buf[a].Dist != buf[b].Dist {
				return buf[a].Dist < buf[b].Dist
			}
			return buf[a].Instance < buf[b].Instance
		})
		for k := range buf {
			if k == 0 || buf[k].Src != buf[k-1].Src {
				rows[v] = append(rows[v], buf[k])
			}
		}
	}
	return rows
}

// requireSameTables fails unless the oracle holds exactly the reference
// rows, entry for entry, and counts their entries.
func requireSameTables(t *testing.T, name string, got *Oracle, want [][]core.Estimate) {
	t.Helper()
	if got.n != len(want) {
		t.Fatalf("%s: n = %d, want %d", name, got.n, len(want))
	}
	entries := 0
	for v, row := range want {
		var have []core.Estimate
		sourcesOf(got, v, func(e core.Estimate) { have = append(have, e) })
		if !slices.Equal(have, row) {
			t.Fatalf("%s: row %d is %+v, the sort-based reference's %+v", name, v, have, row)
		}
		entries += len(row)
	}
	if got.Entries() != entries {
		t.Fatalf("%s: %d entries, the reference has %d", name, got.Entries(), entries)
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
					row := slices.Clone(ref[v])
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

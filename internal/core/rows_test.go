package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pde/internal/congest"
	"pde/internal/detection"
	"pde/internal/graph"
)

// tableRow reads node v's row of t back as estimates, in source order.
func tableRow(t Table, v int) []Estimate {
	pg, r := t.Pages[v>>PageShift], v&(PageRows-1)
	var row []Estimate
	for k := pg.Off[r]; k < pg.Off[r+1]; k++ {
		row = append(row, Estimate{Dist: pg.Dists[k], Src: pg.Srcs[k], Via: pg.Vias[k], Instance: pg.Insts[k], Flag: pg.Flags[k]})
	}
	return row
}

// detLists reads every node's list of det.
func detLists(det *detection.Result) [][]detection.Entry {
	out := make([][]detection.Entry, len(det.SelfEmits))
	for v := range out {
		out[v] = det.List(v, nil)
	}
	return out
}

// detResult lays hand-built lists, each sorted by (Dist, Src), out in a
// detection result's pages; an entry's flag is flags[Src].
func detResult(flags []uint8, lists ...[]detection.Entry) *detection.Result {
	det := &detection.Result{Flags: flags, SelfEmits: make([]int32, len(lists))}
	for lo := 0; lo < len(lists); lo += detection.PageRows {
		pg := detection.Page{Off: new([detection.PageRows + 1]int32)}
		for r := range detection.PageRows {
			if lo+r < len(lists) {
				for _, e := range lists[lo+r] {
					pg.Keys = append(pg.Keys, uint64(e.Dist)<<32|uint64(e.Src))
					pg.Vias = append(pg.Vias, e.Via)
				}
			}
			pg.Off[r+1] = int32(len(pg.Keys))
		}
		det.Pages = append(det.Pages, pg)
	}
	return det
}

// TestRowsHandBuilt pins the row pass's corner cases on instances small
// enough to read: a cross-instance tie (the lower instance wins), a later
// instance that is strictly smaller (it wins), a source only one instance
// detected, an instance with an empty list, and a node with no entries.
// At σ = 1 each list is its row's smallest entry. Source 3 is flagged.
func TestRowsHandBuilt(t *testing.T) {
	flags := []uint8{0, 0, 0, 1}
	inst := func(base float64, lists ...[]detection.Entry) *Instance {
		return &Instance{Base: base, Det: detResult(flags, lists...)}
	}
	insts := []*Instance{
		// node 0, node 1, node 2, node 3
		inst(1, []detection.Entry{{Dist: 4, Src: 3, Via: 1}, {Dist: 8, Src: 1, Via: 1}}, nil, nil, nil),
		inst(2, []detection.Entry{{Dist: 2, Src: 3, Via: 2}, {Dist: 3, Src: 1, Via: 2}}, []detection.Entry{{Dist: 1, Src: 2, Via: 2}}, nil, nil),
		inst(4, []detection.Entry{{Dist: 1, Src: 3, Via: 3}, {Dist: 5, Src: 0, Via: -1}}, nil, nil, []detection.Entry{{Dist: 0, Src: 3, Via: -1}}),
	}
	table, lists := layRows(insts, 4, 1, nil, nil)

	want := map[int][]Estimate{
		0: {
			{Dist: 20, Src: 0, Via: -1, Instance: 2},        // one instance only
			{Dist: 6, Src: 1, Via: 2, Instance: 1},          // 3·2 < 8·1: the later instance is strictly smaller
			{Dist: 4, Src: 3, Via: 1, Instance: 0, Flag: 1}, // 4·1 = 2·2 = 1·4: lowest instance
		},
		1: {{Dist: 2, Src: 2, Via: 2, Instance: 1}}, // instances 0 and 2 hold an empty list here
		2: nil,
		3: {{Dist: 0, Src: 3, Via: -1, Instance: 2, Flag: 1}},
	}
	wantLists := [][]Estimate{
		{{Dist: 4, Src: 3, Via: 1, Instance: 0, Flag: 1}},
		{{Dist: 2, Src: 2, Via: 2, Instance: 1}},
		nil,
		{{Dist: 0, Src: 3, Via: -1, Instance: 2, Flag: 1}},
	}
	for v := 0; v < 4; v++ {
		if got := tableRow(table, v); !reflect.DeepEqual(got, want[v]) {
			t.Fatalf("node %d: row %+v, want %+v", v, got, want[v])
		}
		if !slices.Equal(lists[v], wantLists[v]) {
			t.Fatalf("node %d: list %+v, want %+v", v, lists[v], wantLists[v])
		}
	}
}

// serveBulkResult is serve-bulk's APSP tables, the shape the benchmark of
// record pays a cold row pass at.
func serveBulkResult(tb testing.TB) *Result {
	g, err := graph.Generate("random", 384, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := Run(g, APSPParams(g.N(), 1), congest.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// churnMixedDelta is one seeded four-edge update on churn-mixed's partial
// roadgrid tables: the previous result and the delta build from it.
func churnMixedDelta(tb testing.TB) (prev, res *Result) {
	g, p := churnShape(tb, 576)
	var err error
	if prev, err = Run(g, p, congest.Config{}); err != nil {
		tb.Fatal(err)
	}
	ng := drawn(tb, g, graph.ChangeReweight, 4, rand.New(rand.NewSource(3)))
	if res, _, err = Build(ng, p, congest.Config{}, prev); err != nil {
		tb.Fatal(err)
	}
	return prev, res
}

var (
	tableSink Table
	listsSink [][]Estimate
)

// movedList lists the rows of res that moved, ascending.
func movedList(res *Result) []int32 {
	var rows []int32
	for v := range res.Lists {
		if res.RowMoved(v) {
			rows = append(rows, int32(v))
		}
	}
	return rows
}

// TestAllocsPerRunDeltaRows: the row pass of a few-row delta allocates
// its arrays — the page index, the lists, the two stamp arrays — and its
// scratch, one list per moved row and one page (a header and three
// column arrays) per page that holds a moved row, and nothing per unmoved row,
// whose list is prev's and whose page is prev's or a copy.
func TestAllocsPerRunDeltaRows(t *testing.T) {
	prev, res := churnMixedDelta(t)
	n := len(res.Lists)
	moved := movedList(res)
	pages := map[int32]bool{}
	for _, v := range moved {
		pages[v>>PageShift] = true
	}
	// 19 measured beside the moved rows and pages: the arrays, and the
	// row buffer and the page columns growing to their longest.
	bound := 30 + len(moved) + 4*len(pages)
	if n-len(moved) <= bound {
		t.Fatalf("%d of %d rows unmoved: the bound of %d would not notice an allocation per unmoved row", n-len(moved), n, bound)
	}
	allocs := testing.AllocsPerRun(5, func() {
		tableSink, listsSink = layRows(res.Instances, n, res.Params.Sigma, prev, moved)
	})
	t.Logf("%.0f allocations per delta row pass, %d of %d rows moved on %d pages", allocs, len(moved), n, len(pages))
	if allocs > float64(bound) {
		t.Fatalf("the delta row pass allocates %.0f times, want <= %d", allocs, bound)
	}
}

// BenchmarkRows times the row pass at the shapes the benchmark of record
// pays it at: cold on serve-bulk's APSP tables, and cold and delta on one
// churn-mixed update.
func BenchmarkRows(b *testing.B) {
	bulk := serveBulkResult(b)
	prev, churn := churnMixedDelta(b)
	for _, c := range []struct {
		name string
		res  *Result
		prev *Result
	}{
		{"serve-bulk/cold", bulk, nil},
		{"churn-mixed/cold", churn, nil},
		{"churn-mixed/delta", churn, prev},
	} {
		b.Run(c.name, func(b *testing.B) {
			var moved []int32
			if c.prev != nil {
				moved = movedList(c.res)
			}
			b.ReportAllocs()
			for b.Loop() {
				tableSink, listsSink = layRows(c.res.Instances, len(c.res.Lists), c.res.Params.Sigma, c.prev, moved)
			}
		})
	}
}

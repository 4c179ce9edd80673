package oracle

import (
	"math/rand"
	"reflect"
	"testing"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
)

// reweightBatch returns k reweights of distinct seeded random edges to weights in
// [1, g.MaxWeight()].
func reweightBatch(g *graph.Graph, rng *rand.Rand, k int) []graph.Change {
	type edge struct{ u, v int }
	var all []edge
	g.Edges(func(u, v int, _ graph.Weight, _ int32) { all = append(all, edge{u, v}) })
	batch := make([]graph.Change, k)
	for j, id := range rng.Perm(len(all))[:k] {
		e := all[id]
		batch[j] = graph.Change{Op: graph.OpReweight, U: e.u, V: e.v, W: 1 + graph.Weight(rng.Int63n(int64(g.MaxWeight())))}
	}
	return batch
}

// deltaBuild applies batch to g and builds the result the serving layer
// would: a delta core.Build from prev when the structure held, a cold one
// when it did not.
func deltaBuild(t *testing.T, g *graph.Graph, p core.Params, prev *core.Result, batch []graph.Change) (*graph.Graph, *core.Result) {
	t.Helper()
	ng, sum, err := g.ApplyChanges(batch)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TopologyChanged {
		prev = nil
	}
	res, _, err := core.Build(ng, p, congest.Config{}, prev)
	if err != nil {
		t.Fatal(err)
	}
	return ng, res
}

// TestUpdateMatchesCompile chains updates over seeded weight-only
// batches, one that deepens the hierarchy (every row moves) and an edge
// insertion (a cold build): each oracle.Update of the previous oracle is
// the cold Compile of the new result, array for array.
func TestUpdateMatchesCompile(t *testing.T) {
	g, err := graph.Generate("roadgrid", 144, 1024, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	p := sweepParams(g.N(), 4, 4, 0.5)
	res := buildResult(t, g, p)
	o := Compile(res)
	rng := rand.New(rand.NewSource(8))
	u0, v0 := 0, int(g.Neighbors(0)[0].To)
	batches := map[string]func(*graph.Graph) []graph.Change{
		"deeper": func(g *graph.Graph) []graph.Change {
			return []graph.Change{{Op: graph.OpReweight, U: u0, V: v0, W: 4 * g.MaxWeight()}}
		},
		"insert": func(g *graph.Graph) []graph.Change {
			for v := 2; v < g.N(); v++ {
				if _, ok := g.EdgeBetween(0, v); !ok {
					return []graph.Change{{Op: graph.OpInsert, U: 0, V: v, W: 3}}
				}
			}
			t.Fatal("node 0 is adjacent to every node")
			return nil
		},
	}
	copied := 0
	for _, step := range []string{"random", "random", "deeper", "random", "insert", "random", "random"} {
		batch := reweightBatch(g, rng, 4)
		if f := batches[step]; f != nil {
			batch = f(g)
		}
		var next *core.Result
		g, next = deltaBuild(t, g, p, res, batch)
		got := Update(o, next)
		if !reflect.DeepEqual(got, Compile(next)) {
			t.Fatalf("%s: Update differs from Compile", step)
		}
		for v := 0; v < g.N(); v++ {
			if !next.RowMoved(v) {
				copied++
			}
		}
		res, o = next, got
	}
	if copied == 0 {
		t.Fatal("no row was ever copied: the chain does not exercise Update's copy branch")
	}

	// An oracle of another node count, or none, is no source of rows.
	gs, err := graph.Generate("roadgrid", 64, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	small := Compile(buildResult(t, gs, sweepParams(gs.N(), 4, 4, 0.5)))
	for name, prev := range map[string]*Oracle{"other size": small, "nil": nil} {
		if got := Update(prev, res); !reflect.DeepEqual(got, Compile(res)) {
			t.Fatalf("%s: Update differs from Compile", name)
		}
	}
}

// churnMixedUpdate is one seeded four-edge update on churn-mixed's
// tables: the previous oracle and the delta result to update it with.
func churnMixedUpdate(tb testing.TB) (*Oracle, *core.Result) {
	g, err := graph.Generate("roadgrid", 576, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	p := sweepParams(g.N(), 16, 8, 0.5)
	prev := buildResult(tb, g, p)
	ng, _, err := g.ApplyChanges(reweightBatch(g, rand.New(rand.NewSource(3)), 4))
	if err != nil {
		tb.Fatal(err)
	}
	res, _, err := core.Build(ng, p, congest.Config{}, prev)
	if err != nil {
		tb.Fatal(err)
	}
	return Compile(prev), res
}

// TestAllocsPerRunUpdate: Update on a few-row delta allocates its arrays
// — the header, the offsets, the five CSR columns sized from prev, the
// two stamp arrays and the row buffer — and nothing per row, copied or
// compiled. Compile allocates 88 times on the same result.
func TestAllocsPerRunUpdate(t *testing.T) {
	prev, res := churnMixedUpdate(t)
	// 14 measured: the arrays, and the row buffer growing to the longest
	// compiled row; five more if the columns outgrow prev's size by an
	// eighth.
	const bound = 20
	allocs := testing.AllocsPerRun(5, func() { compileSink = Update(prev, res) })
	t.Logf("%.0f allocations per Update", allocs)
	if allocs > bound {
		t.Fatalf("Update allocates %.0f times per call, want <= %d", allocs, bound)
	}
}

// BenchmarkUpdate times one Update against one Compile of the same
// delta result on churn-mixed's tables.
func BenchmarkUpdate(b *testing.B) {
	prev, res := churnMixedUpdate(b)
	for _, c := range []struct {
		name string
		f    func() *Oracle
	}{
		{"update", func() *Oracle { return Update(prev, res) }},
		{"compile", func() *Oracle { return Compile(res) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.f()
			}
		})
	}
}

package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func deltaTestGraph(t *testing.T) *Graph {
	t.Helper()
	// 0-1-2-3 path plus chords 0-2 and 1-3.
	return NewBuilder(4).
		AddEdge(0, 1, 3).
		AddEdge(1, 2, 5).
		AddEdge(2, 3, 7).
		AddEdge(0, 2, 11).
		AddEdge(1, 3, 13).
		MustBuild()
}

func TestApplyChangesReweightKeepsIDs(t *testing.T) {
	g := deltaTestGraph(t)
	ng, sum, err := g.ApplyChanges([]Change{
		{Op: OpReweight, U: 2, V: 1, W: 6}, // endpoint order must not matter
		{Op: OpReweight, U: 0, V: 2, W: 1},
	})
	if err != nil {
		t.Fatalf("ApplyChanges: %v", err)
	}
	if sum.Reweights != 2 || sum.Inserts != 0 || sum.Deletes != 0 || sum.TopologyChanged {
		t.Fatalf("summary = %+v, want 2 weight-only reweights", sum)
	}
	rw, ok := ng.Reweights(g)
	if !ok {
		t.Fatal("weight-only change must preserve structure")
	}
	if want := []Reweight{{U: 0, V: 2, Was: 11, Now: 1}, {U: 1, V: 2, Was: 5, Now: 6}}; !slices.Equal(rw, want) {
		t.Fatalf("Reweights = %+v, want %+v", rw, want)
	}
	if rw, ok := g.Reweights(g); !ok || rw != nil {
		t.Fatalf("a graph against itself: Reweights = %+v, %v", rw, ok)
	}
	// Same ids, updated weights; g untouched.
	type want struct {
		u, v int
		w    Weight
	}
	wants := map[int32]want{0: {0, 1, 3}, 1: {1, 2, 6}, 2: {2, 3, 7}, 3: {0, 2, 1}, 4: {1, 3, 13}}
	seen := 0
	ng.Edges(func(u, v int, w Weight, id int32) {
		seen++
		exp, ok := wants[id]
		if !ok || exp.u != u || exp.v != v || exp.w != w {
			t.Errorf("edge id %d = {%d,%d} w=%d, want %+v", id, u, v, w, exp)
		}
	})
	if seen != 5 {
		t.Fatalf("new graph has %d edges, want 5", seen)
	}
	if e, _ := g.EdgeBetween(1, 2); e.W != 5 {
		t.Fatalf("original graph mutated: edge {1,2} weight %d", e.W)
	}
}

func TestApplyChangesInsertDelete(t *testing.T) {
	g := deltaTestGraph(t)
	ng, sum, err := g.ApplyChanges([]Change{
		{Op: OpDelete, U: 0, V: 2},
		{Op: OpInsert, U: 0, V: 3, W: 2},
	})
	if err != nil {
		t.Fatalf("ApplyChanges: %v", err)
	}
	if !sum.TopologyChanged || sum.Inserts != 1 || sum.Deletes != 1 {
		t.Fatalf("summary = %+v, want topology change", sum)
	}
	if ng.M() != 5 {
		t.Fatalf("M = %d, want 5", ng.M())
	}
	if _, ok := ng.EdgeBetween(0, 2); ok {
		t.Fatal("deleted edge {0,2} still present")
	}
	if e, ok := ng.EdgeBetween(0, 3); !ok || e.W != 2 {
		t.Fatalf("inserted edge {0,3} = %+v ok=%v, want w=2", e, ok)
	}
	if _, ok := ng.Reweights(g); ok {
		t.Fatal("Reweights must detect a topology change")
	}
	if _, ok := NewBuilder(5).MustBuild().Reweights(g); ok {
		t.Fatal("Reweights must detect a node-count change")
	}
}

func TestApplyChangesErrors(t *testing.T) {
	g := deltaTestGraph(t)
	cases := []struct {
		name    string
		changes []Change
		wantSub string
	}{
		{"empty", nil, "empty change batch"},
		{"out-of-range", []Change{{Op: OpReweight, U: 0, V: 9, W: 2}}, "out of range"},
		{"self-loop", []Change{{Op: OpInsert, U: 1, V: 1, W: 2}}, "self-loop"},
		{"dup-pair", []Change{{Op: OpReweight, U: 0, V: 1, W: 2}, {Op: OpReweight, U: 1, V: 0, W: 4}}, "changed twice"},
		{"reweight-missing", []Change{{Op: OpReweight, U: 0, V: 3, W: 2}}, "missing edge"},
		{"insert-existing", []Change{{Op: OpInsert, U: 0, V: 1, W: 2}}, "existing edge"},
		{"delete-missing", []Change{{Op: OpDelete, U: 0, V: 3}}, "missing edge"},
		{"bad-weight", []Change{{Op: OpReweight, U: 0, V: 1, W: 0}}, "non-positive weight"},
		{"bad-op", []Change{{Op: ChangeOp(9), U: 0, V: 1, W: 2}}, "unknown op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := g.ApplyChanges(tc.changes); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseChangeOpRoundTrip(t *testing.T) {
	for _, op := range []ChangeOp{OpReweight, OpInsert, OpDelete} {
		got, err := ParseChangeOp(op.String())
		if err != nil || got != op {
			t.Fatalf("ParseChangeOp(%q) = %v, %v", op.String(), got, err)
		}
	}
	if _, err := ParseChangeOp("upsert"); err == nil {
		t.Fatal("ParseChangeOp must reject unknown names")
	}
	if s := ChangeOp(9).String(); !strings.Contains(s, "9") {
		t.Fatalf("ChangeOp(9).String() = %q", s)
	}
}

func TestApplyChangesRandomizedAgainstRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		g, err := Generate("random", 24, 16, rng)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		// Random weight-only batch over distinct existing edges.
		type pair struct{ u, v int }
		var all []pair
		g.Edges(func(u, v int, _ Weight, _ int32) { all = append(all, pair{u, v}) })
		k := 1 + rng.Intn(4)
		if k > len(all) {
			k = len(all)
		}
		perm := rng.Perm(len(all))
		var changes []Change
		newW := make(map[pair]Weight)
		for _, pi := range perm[:k] {
			p := all[pi]
			w := Weight(1 + rng.Intn(16))
			changes = append(changes, Change{Op: OpReweight, U: p.u, V: p.v, W: w})
			newW[p] = w
		}
		ng, _, err := g.ApplyChanges(changes)
		if err != nil {
			t.Fatalf("trial %d: ApplyChanges: %v", trial, err)
		}
		rw, ok := ng.Reweights(g)
		if !ok {
			t.Fatalf("trial %d: structure drift on weight-only batch", trial)
		}
		var moved []Reweight
		ng.Edges(func(u, v int, w Weight, id int32) {
			want := newW[pair{u, v}]
			e, _ := g.EdgeBetween(u, v)
			if want == 0 {
				want = e.W
			}
			if w != e.W {
				moved = append(moved, Reweight{U: int32(u), V: int32(v), Was: e.W, Now: w})
			}
			if w != want {
				t.Fatalf("trial %d: edge {%d,%d} w=%d, want %d", trial, u, v, w, want)
			}
			if e, _ := g.EdgeBetween(u, v); e.ID != id {
				t.Fatalf("trial %d: edge {%d,%d} id %d != original %d", trial, u, v, id, e.ID)
			}
		})
		if !slices.Equal(rw, moved) {
			t.Fatalf("trial %d: Reweights = %+v, want %+v", trial, rw, moved)
		}
	}
}

// TestApplyChangesReweightMatchesBuilder: a weight-only batch, patched
// into a copy of the lists, is the graph a Builder makes of the same
// edges in id order, in every adjacency field, M and MaxWeight. The
// batches raise and lower weights across w_max, so both ways the
// maximum can move are covered.
func TestApplyChangesReweightMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, family := range generatorNames() {
		g, err := Generate(family, 64, 32, rng)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			type edge struct {
				u, v int
				w    Weight
			}
			edges := make([]edge, g.M())
			g.Edges(func(u, v int, w Weight, id int32) { edges[id] = edge{u, v, w} })
			var batch []Change
			for _, id := range rng.Perm(len(edges))[:min(len(edges), 1+rng.Intn(6))] {
				e := &edges[id]
				e.w = 1 + Weight(rng.Intn(int(2*g.MaxWeight())))
				if rng.Intn(2) == 0 {
					batch = append(batch, Change{Op: OpReweight, U: e.u, V: e.v, W: e.w})
				} else {
					batch = append(batch, Change{Op: OpReweight, U: e.v, V: e.u, W: e.w})
				}
			}
			ng, _, err := g.ApplyChanges(batch)
			if err != nil {
				t.Fatalf("%s trial %d: %v", family, trial, err)
			}
			b := NewBuilder(g.N())
			for _, e := range edges {
				b.AddEdge(e.u, e.v, e.w)
			}
			ref := b.MustBuild()
			if ng.M() != ref.M() || ng.MaxWeight() != ref.MaxWeight() {
				t.Fatalf("%s trial %d: M %d, MaxWeight %d; Builder %d, %d", family, trial, ng.M(), ng.MaxWeight(), ref.M(), ref.MaxWeight())
			}
			for v := range ref.adj {
				if !slices.Equal(ng.adj[v], ref.adj[v]) {
					t.Fatalf("%s trial %d: node %d lists %+v, Builder %+v", family, trial, v, ng.adj[v], ref.adj[v])
				}
			}
			g = ng
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// nudges returns k ±1 reweights of distinct seeded random edges, kept in
// [1, maxW]: churn-mixed's update.
func nudges(g *graph.Graph, rng *rand.Rand, k int, maxW graph.Weight) []graph.Change {
	type edge struct {
		u, v int
		w    graph.Weight
	}
	var all []edge
	g.Edges(func(u, v int, w graph.Weight, _ int32) { all = append(all, edge{u, v, w}) })
	batch := make([]graph.Change, k)
	for j, id := range rng.Perm(len(all))[:k] {
		e := all[id]
		w := e.w + 1
		if w > maxW || (e.w > 1 && rng.Intn(2) == 0) {
			w = e.w - 1
		}
		batch[j] = graph.Change{Op: graph.OpReweight, U: e.u, V: e.v, W: w}
	}
	return batch
}

// crossing returns reweights of k seeded random edges to 1 or to
// g.MaxWeight(), which moves their lengths across h′ in the low
// instances, where an edge of weight w_max is left out and one of weight
// 1 is not.
func crossing(g *graph.Graph, rng *rand.Rand, k int) []graph.Change {
	batch := randomReweights(g, rng, k)
	for j := range batch {
		if j%2 == 0 {
			batch[j].W = 1
		} else {
			batch[j].W = g.MaxWeight()
		}
	}
	return batch
}

// sameAsCold fails unless res equals a cold Run on g: its lists, its
// table and every instance's detection lists, and so its fingerprint.
func sameAsCold(t *testing.T, label string, g *graph.Graph, p Params, res *Result) {
	t.Helper()
	cold, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatalf("%s: cold run: %v", label, err)
	}
	if len(res.Instances) != len(cold.Instances) {
		t.Fatalf("%s: %d instances, cold run has %d", label, len(res.Instances), len(cold.Instances))
	}
	for i := range cold.Instances {
		got, want := res.Instances[i].Det.Lists, cold.Instances[i].Det.Lists
		for v := range want {
			if !reflect.DeepEqual(got[v], want[v]) {
				t.Fatalf("%s: instance %d node %d: list %v, cold run %v", label, i, v, got[v], want[v])
			}
		}
	}
	if !reflect.DeepEqual(res.Lists, cold.Lists) {
		t.Fatalf("%s: lists differ from a cold run's", label)
	}
	if !reflect.DeepEqual(res.Table, cold.Table) {
		t.Fatalf("%s: table differs from a cold run's", label)
	}
	if res.Fingerprint() != cold.Fingerprint() {
		t.Fatalf("%s: fingerprint %016x, cold run %016x", label, res.Fingerprint(), cold.Fingerprint())
	}
}

// TestRepairMatchesColdRun chains delta builds on four families and
// several seeds, under churn-mixed's kind of params and under a small h
// with a large σ (lists shorter than σ, so radii at h′) and per-source
// flags. Each chain mixes ±1 nudges, random reweights and lengths that
// cross h′, and every generation must equal a cold run, instance lists
// (Via included) and all. Over all chains some instance must be repaired
// and some instance that had a predecessor must fall back to a full run.
func TestRepairMatchesColdRun(t *testing.T) {
	params := map[string]func(n int) Params{
		"churn": func(n int) Params {
			src := make([]bool, n)
			for v := 0; v < n; v += 3 {
				src[v] = true
			}
			return Params{IsSource: src, H: 6, Sigma: 4, Epsilon: 0.5}
		},
		"short-lists-flags": func(n int) Params {
			src := make([]bool, n)
			flags := make([]uint8, n)
			for v := 0; v < n; v += 5 {
				src[v] = true
				flags[v] = uint8(v % 3)
			}
			return Params{IsSource: src, Flags: flags, H: 2, Sigma: 12, Epsilon: 0.5}
		},
	}
	var repaired, fellBack int
	for _, topology := range []string{"roadgrid", "community", "random", "powerlaw"} {
		for seed := int64(1); seed <= 3; seed++ {
			for name, mk := range params {
				label := fmt.Sprintf("%s-seed%d-%s", topology, seed, name)
				g, err := graph.Generate(topology, 120, 256, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				p := mk(g.N())
				prev, err := Run(g, p, congest.Config{})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed * 131))
				for step := range 6 {
					var batch []graph.Change
					switch step % 3 {
					case 0:
						batch = nudges(g, rng, 4, 256)
					case 1:
						batch = randomReweights(g, rng, 3)
					default:
						batch = crossing(g, rng, 2)
					}
					ng, _, err := g.ApplyChanges(batch)
					if err != nil {
						t.Fatal(err)
					}
					res, ps, err := Build(ng, p, congest.Config{}, prev)
					if err != nil {
						t.Fatal(err)
					}
					sameAsCold(t, fmt.Sprintf("%s step %d", label, step), ng, p, res)
					repaired += ps.Repaired
					if len(prev.Instances) == len(res.Instances) {
						fellBack += ps.Rebuilt - ps.Repaired
					}
					g, prev = ng, res
				}
			}
		}
	}
	t.Logf("%d instances repaired, %d fell back to a full run", repaired, fellBack)
	if repaired == 0 || fellBack == 0 {
		t.Fatalf("%d repaired and %d fell back: the chains must take both paths", repaired, fellBack)
	}
}

// TestRepairMatchesColdRunAtScale is one churn-mixed chain at n = 10⁴,
// where the halo is a sliver of the graph. It needs a cold build of
// some seconds per step, so -short skips it.
func TestRepairMatchesColdRunAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("cold builds at n = 10⁴")
	}
	g, p := churnShape(t, 10000)
	prev, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for step := range 3 {
		ng, _, err := g.ApplyChanges(nudges(g, rng, 4, 1024))
		if err != nil {
			t.Fatal(err)
		}
		res, ps, err := Build(ng, p, congest.Config{}, prev)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("step %d: %d instances rebuilt, %d repaired on %d nodes", step, ps.Rebuilt, ps.Repaired, ps.RepairNodes)
		if ps.Repaired == 0 {
			t.Fatalf("step %d: nothing repaired", step)
		}
		sameAsCold(t, fmt.Sprintf("step %d", step), ng, p, res)
		g, prev = ng, res
	}
}

// churnShape is churn-mixed's spec at n nodes: a road grid with weights
// up to 1024, sources every third node, h = 16, σ = 8, ε = 0.5.
func churnShape(tb testing.TB, n int) (*graph.Graph, Params) {
	tb.Helper()
	g, err := graph.Generate("roadgrid", n, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	src := make([]bool, g.N())
	for v := 0; v < g.N(); v += 3 {
		src[v] = true
	}
	return g, Params{IsSource: src, H: 16, Sigma: 8, Epsilon: 0.5}
}

// BenchmarkDeltaBuild times one delta core.Build at churn-mixed's shape:
// four ±1 reweights from the previous generation, one worker. The
// updates are drawn ahead and applied in turn, each from the last
// result. -short skips n = 10⁴ and n = 10⁵, whose cold build, outside the
// timer, takes tens of seconds.
func BenchmarkDeltaBuild(b *testing.B) {
	for _, n := range []int{576, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n > 1000 && testing.Short() {
				b.Skip("n > 10³ under -short")
			}
			b.ReportAllocs()
			g, p := churnShape(b, n)
			prev, err := Run(g, p, congest.Config{})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			const chain = 16
			graphs := make([]*graph.Graph, chain)
			for k := range graphs {
				if g, _, err = g.ApplyChanges(nudges(g, rng, 4, 1024)); err != nil {
					b.Fatal(err)
				}
				graphs[k] = g
			}
			results := make([]*Result, chain+1)
			results[0] = prev
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % chain
				if k == 0 && i > 0 {
					b.StopTimer()
					results[0] = prev
					b.StartTimer()
				}
				if results[k+1], _, err = Build(graphs[k], p, congest.Config{}, results[k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

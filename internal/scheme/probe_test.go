package scheme

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pde/internal/core"
	"pde/internal/graph"
)

// churnSpec is churn-mixed's shard: a partial (h = 16, σ = 8) oracle on a
// 576-node road grid with weights up to 1024. One build worker keeps
// what an update allocates independent of the machine's width.
func churnSpec() Spec {
	return Spec{Topology: "roadgrid", N: 576, Eps: 0.5, MaxW: 1024, H: 16, Sigma: 8, Seed: 11, BuildWorkers: 1}
}

// unevenSpec is a shard whose probe routes are not all shortest paths
// (about one stretch in twelve is above 1), so that the order in which
// an update adds the stretches it takes over shows in MeanStretch.
func unevenSpec() Spec {
	return Spec{Topology: "community", N: 96, Eps: 8, MaxW: 1 << 16, H: 4, Sigma: 8, Seed: 3, BuildWorkers: 1}
}

// probeAll measures a probe source at every node of in, each drawing
// from an rng seeded with its id, and keeps every measurement.
func probeAll(t *testing.T, in *OracleInstance) []*probeSource {
	t.Helper()
	pb := prober{route: in.Route, candidates: func(v int) []int32 {
		srcs := make([]int32, 0, len(in.Res.Lists[v]))
		for _, e := range in.Res.Lists[v] {
			srcs = append(srcs, e.Src)
		}
		return srcs
	}, record: true}
	all := make([]*probeSource, in.Gr.N())
	for v := range all {
		var err error
		if all[v], err = probeFrom(in.Gr, v, rand.New(rand.NewSource(int64(v))), pb); err != nil {
			t.Fatal(err)
		}
	}
	return all
}

// TestProbeReuseMatchesColdProbe chains delta updates, with one
// structure change (the rebuild path) and one shard wrapped by
// NewOracleInstance (the prebuilt path) on the way, and holds every
// generation's accounting — the stretch probe's maximum, mean and route
// count among it — to a cold BuildOn's on the same graph, field for
// field. Both the rebuild and the prebuilt instance probe in full, and
// the delta updates take most probe sources over. It runs at
// churn-mixed's shape and on unevenSpec; each update is four nudges from
// graph.RandomChanges, or every fifth one random reweight.
//
// The probe draws only eight sources, so delta updates also probe from
// every node of both generations: a source the update would take over
// (unmoved) must measure the same on the new one — the same stretches,
// routes and settled nodes — and must stop being taken over once a node
// whose row moved joins its route or a changed edge's endpoint its
// settled nodes. Last, taking every source over must add the stretches
// in draw order.
func TestProbeReuseMatchesColdProbe(t *testing.T) {
	for _, c := range []struct {
		name  string
		sp    Spec
		steps int
		most  int // at least one probe source in most is taken over
		every int // probe from every node on every every-th update
	}{
		{"churn-mixed", churnSpec(), 100, 2, 4},
		{"uneven", unevenSpec(), 60, 10, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			steps := c.steps
			if testing.Short() {
				steps = 12
			}
			inst, err := Build(c.sp)
			if err != nil {
				t.Fatal(err)
			}
			// The cold builds use every core; their accounting does not
			// depend on the width.
			wide := c.sp
			wide.BuildWorkers = 0
			rng := rand.New(rand.NewSource(5))
			reused, probed, checked, witnesses := 0, 0, 0, 0
			for i := range steps {
				g := inst.Graph()
				kind, k := graph.ChangeNudge, 4
				switch {
				case i == steps/3:
					kind, k = graph.ChangeInsert, 1
				case i == 2*steps/3:
					if inst, err = NewOracleInstance(c.sp, g, inst.(*OracleInstance).Res, 0); err != nil {
						t.Fatal(err)
					}
				case i%5 == 4:
					kind, k = graph.ChangeReweight, 1
				}
				batch := graph.RandomChanges(g, kind, k, rng)
				var all []*probeSource
				if i%c.every == 0 {
					all = probeAll(t, inst.(*OracleInstance))
				}
				g2, sum, err := g.ApplyChanges(batch)
				if err != nil {
					t.Fatal(err)
				}
				var st UpdateStats
				if inst, st, err = Update(inst, g2); err != nil {
					t.Fatal(err)
				}
				cold, err := BuildOn(wide, g2)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := inst.Accounting(), cold.Accounting(); got != want {
					t.Fatalf("update %d (%s, %d probe sources taken over): accounting %+v, cold build %+v", i, st.Path, st.ProbesReused, got, want)
				}
				if all != nil && st.Path == "delta" {
					next := probeAll(t, inst.(*OracleInstance))
					res := inst.(*OracleInstance).Res
					keep := unmoved(res)
					for v, src := range all {
						if keep(src) {
							checked++
							if !reflect.DeepEqual(src, next[v]) {
								t.Fatalf("update %d: the probe from %d would be taken over, but measures %+v, not %+v", i, v, next[v], src)
							}
							witnesses += refusesWhatMoved(t, res, keep, src)
						}
					}
				}
				if sum.TopologyChanged || i == 2*steps/3 {
					if st.ProbesReused != 0 {
						t.Fatalf("update %d (%s): %d probe sources taken over after a full probe", i, st.Path, st.ProbesReused)
					}
					continue
				}
				reused += st.ProbesReused
				probed += probeSources
			}
			t.Logf("%d of %d probe sources taken over; %d sources from every node checked, %d variants with a moved node refused", reused, probed, checked, witnesses)
			if reused*c.most < probed {
				t.Fatalf("%d of %d probe sources taken over, want at least 1 in %d", reused, probed, c.most)
			}
			if witnesses == 0 {
				t.Fatal("no source the updates would take over had a moved node to add")
			}
			addsInDrawOrder(t, inst.(*OracleInstance))
		})
	}
}

// refusesWhatMoved holds keep, which accepts src, to each of its
// refusals: src with a node whose row moved added to its route, and src
// with an endpoint of a changed edge added to its settled nodes, must be
// refused. It returns how many such variants it tried.
func refusesWhatMoved(t *testing.T, res *core.Result, keep func(*probeSource) bool, src *probeSource) int {
	t.Helper()
	with := func(set []int32, u int32) []int32 {
		out := append([]int32{u}, set...)
		slices.Sort(out)
		return slices.Compact(out)
	}
	tried := 0
	for v := range res.Lists {
		if res.RowMoved(v) {
			variant := *src
			variant.route = with(src.route, int32(v))
			if keep(&variant) {
				t.Fatalf("a probe from %d whose route passes %d, whose row moved, would be taken over", src.v, v)
			}
			tried++
			break
		}
	}
	for _, e := range res.Changed() {
		variant := *src
		variant.settled = with(src.settled, e.U)
		if keep(&variant) {
			t.Fatalf("a probe from %d that settles %d, an endpoint of a changed edge, would be taken over", src.v, e.U)
		}
		tried++
		break
	}
	return tried
}

// addsInDrawOrder takes every probe source of in over, on in itself,
// after giving one of them stretches whose float sum depends on the
// order they are added in: the mean must be the sum in draw order.
func addsInDrawOrder(t *testing.T, in *OracleInstance) {
	t.Helper()
	memo := slices.Clone(in.probes)
	odd := *memo[probeSources/2]
	odd.stretches = []float64{1, 1e16, -1e16}
	memo[probeSources/2] = &odd
	var sum float64
	routes := 0
	for _, src := range memo {
		for _, st := range src.stretches {
			sum += st
			routes++
		}
	}
	pr, err := measureStretch(in.Gr, in.Sp.Seed, prober{route: in.Route, prev: memo, keep: func(*probeSource) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if pr.reused != probeSources || pr.routes != routes || pr.mean != sum/float64(routes) {
		t.Fatalf("taking every source over: %d taken, %d routes, mean %v; want %d, %d, %v", pr.reused, pr.routes, pr.mean, probeSources, routes, sum/float64(routes))
	}
}

// TestAllocsPerRunUpdate holds what one delta update of churn-mixed's
// shard allocates, measured as MemStats.TotalAlloc over six chains of 40
// updates of four nudges, seeds 1–6, each update from the last. One
// chain's mean is a measure of which edges its seed moves (the six read
// 194–280 KB apiece), so the budget gates the mean over all six. It is
// below what the update allocated while the table was copied whole
// (~127 KB more) or the stretch probe ran in full (~100 KB more), so
// either coming back fails it.
func TestAllocsPerRunUpdate(t *testing.T) {
	const budget = 290 << 10
	base, err := Build(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	updates := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gs := make([]*graph.Graph, 40)
		g := base.Graph()
		for i := range gs {
			if g, _, err = g.ApplyChanges(graph.RandomChanges(g, graph.ChangeNudge, 4, rng)); err != nil {
				t.Fatal(err)
			}
			gs[i] = g
		}
		inst := base
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, g := range gs {
			if inst, _, err = Update(inst, g); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
		updates += len(gs)
		t.Logf("seed %d: %d bytes allocated per update", seed, (after.TotalAlloc-before.TotalAlloc)/uint64(len(gs)))
	}
	per := total / uint64(updates)
	t.Logf("%d bytes allocated per update over the six chains", per)
	if per > budget {
		t.Fatalf("an update allocated %d bytes on average, budget %d", per, budget)
	}
}

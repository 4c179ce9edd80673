package core

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pde/internal/congest"
	"pde/internal/detection"
	"pde/internal/graph"
)

// step is one byte of FuzzDeltaChain's steps: a batch of k changes of
// kind, k in [1, 28].
func step(kind graph.ChangeKind, k int) byte {
	return byte(int(kind) + (k-1)*int(graph.ChangeKinds))
}

// chainShape is FuzzDeltaChain's graph and params from its seed and
// shape: one of four families at n = 96 with weights up to 256, under one
// of three recipes — every third node a source at h = 6, σ = 4
// (churn-mixed's kind); every fifth, with flags, at h = 2, σ = 12, so
// lists are shorter than σ and radii reach h′; every node at h = 12,
// σ = 8 — built with the setup or without it.
func chainShape(t *testing.T, seed int64, shape uint8) (*graph.Graph, Params) {
	t.Helper()
	g, err := graph.Generate([...]string{"roadgrid", "community", "random", "powerlaw"}[shape%4], 96, 256, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	p := Params{IsSource: make([]bool, n), H: 6, Sigma: 4}
	switch shape / 4 % 3 {
	case 0:
		for v := 0; v < n; v += 3 {
			p.IsSource[v] = true
		}
	case 1:
		p.Flags, p.H, p.Sigma = make([]uint8, n), 2, 12
		for v := 0; v < n; v += 5 {
			p.IsSource[v], p.Flags[v] = true, uint8(v%3)
		}
	default:
		p = APSPParams(n, 0)
		p.H, p.Sigma = 12, 8
	}
	p.Epsilon, p.SkipSetup = 0.5, shape/12%2 == 1
	return g, p
}

// FuzzDeltaChain holds the delta build to a cold one along a chain of
// seeded change batches (graph.RandomChanges). At every step the build
// from the previous result equals a cold Run on the new graph — its
// lists, its table, every instance's detection lists, h′, setup and
// budget rounds, and its fingerprint, built once from an undigested prev
// and once from a digested one; RowMoved is exactly the set of rows where
// some instance's list differs from prev's; and the stats add up,
// re-detect the instances AffectedInstances names and reuse the others
// by pointer. A structure change is refused with ErrOtherStructure and
// built cold, a batch the cold build refuses (a delete that disconnects
// the graph) is refused too, and ApplyChanges refuses an edge changed
// twice.
//
// An input is a seed for the graph and the draws, a shape (chainShape)
// and up to eight steps, one byte each: kind byte%ChangeKinds, batch size
// 1+byte/ChangeKinds. Run over exactly the committed seeds, the chains
// must also draw every kind and take every path: a repair, a re-detection
// in full, a partial row pass, a deeper hierarchy, a delta step that
// re-detects most of the hierarchy, a refused batch.
func FuzzDeltaChain(f *testing.F) {
	seeds := 0
	add := func(seed int64, shape uint8, steps ...byte) {
		f.Add(seed, shape, steps)
		seeds++
	}
	// Every family under the churn recipe and under short lists with
	// flags, three seeds each: nudges, random reweights, lengths crossing
	// h′.
	for shape := range uint8(8) {
		for seed := range int64(3) {
			add(seed+1, shape, step(graph.ChangeNudge, 4), step(graph.ChangeReweight, 3), step(graph.ChangeReweight, 2),
				step(graph.ChangeNudge, 4), step(graph.ChangeReweight, 3), step(graph.ChangeReweight, 2))
		}
	}
	// Roadgrid, every third node a source: random reweights, deepening
	// the hierarchy and making it shallower again, nudges, an insert.
	add(41, 0, step(graph.ChangeReweight, 4), step(graph.ChangeReweight, 4), step(graph.ChangeRaiseMax, 1), step(graph.ChangeLowerMax, 1),
		step(graph.ChangeNudge, 4), step(graph.ChangeInsert, 1), step(graph.ChangeReweight, 4))
	// Community, every node a source: single reweights, w_max growing,
	// then nudges to most edges at once.
	add(7, 9, step(graph.ChangeReweight, 1), step(graph.ChangeReweight, 1), step(graph.ChangeReweight, 1), step(graph.ChangeRaiseMax, 1),
		step(graph.ChangeNudge, 28))
	// Structure: a delete, a degree-preserving rewire, an edge changed
	// twice, a no-op, and deletes that disconnect the graph, which the
	// setup's BFS refuses; without the setup the same deletes build.
	add(5, 0, step(graph.ChangeDelete, 1), step(graph.ChangeRewire, 1), step(graph.ChangeTwice, 1), step(graph.ChangeNoOp, 2),
		step(graph.ChangeDelete, 28), step(graph.ChangeNudge, 4))
	add(6, 14, step(graph.ChangeNudge, 4), step(graph.ChangeLowerMax, 1), step(graph.ChangeRewire, 1), step(graph.ChangeDelete, 28),
		step(graph.ChangeNudge, 4))
	var total chainTally
	ran := 0
	f.Cleanup(func() {
		if fz := flag.Lookup("test.fuzz"); ran != seeds || fz.Value.String() != "" {
			return
		}
		f.Logf("the seeds' chains: %+v", total)
		for k, n := range total.kinds {
			if n == 0 {
				f.Errorf("no seed draws a %v batch", graph.ChangeKind(k))
			}
		}
		if total.repairs == 0 || total.fellBack == 0 || total.partial == 0 || total.deeper == 0 || total.heavy == 0 || total.refused == 0 {
			f.Errorf("the seeds leave a path untaken: %+v", total)
		}
	})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, steps []byte) {
		g, p := chainShape(t, seed, shape)
		total.add(deltaChain(t, g, p, seed, steps[:min(len(steps), 8)]))
		ran++
	})
}

// chainTally counts what a delta chain did: the batches it drew by kind,
// the steps that repaired an instance, the instances with a predecessor
// re-detected in full, the steps that moved some rows but not all, those
// that deepened the hierarchy, the delta steps that re-detected more than
// half of it, and the batches both builds refused.
type chainTally struct {
	kinds                                              [graph.ChangeKinds]int
	repairs, fellBack, partial, deeper, heavy, refused int
}

func (c *chainTally) add(o chainTally) {
	for k := range c.kinds {
		c.kinds[k] += o.kinds[k]
	}
	c.repairs, c.fellBack, c.partial, c.deeper = c.repairs+o.repairs, c.fellBack+o.fellBack, c.partial+o.partial, c.deeper+o.deeper
	c.heavy, c.refused = c.heavy+o.heavy, c.refused+o.refused
}

// deltaChain builds p on g cold, then applies one seeded batch per
// steps byte, each to the last graph, and holds every delta build to a
// cold build of its graph (FuzzDeltaChain).
func deltaChain(t *testing.T, g *graph.Graph, p Params, seed int64, steps []byte) (tally chainTally) {
	t.Helper()
	cfg := congest.Config{}
	rng := rand.New(rand.NewSource(seed))
	prev, err := Run(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldPrev := prev
	for i, b := range steps {
		kind, k := graph.ChangeKind(b)%graph.ChangeKinds, 1+int(b)/int(graph.ChangeKinds)
		label := fmt.Sprintf("step %d (%d× %v)", i, k, kind)
		tally.kinds[kind]++
		ng, sum, err := g.ApplyChanges(graph.RandomChanges(g, kind, k, rng))
		if kind == graph.ChangeTwice {
			if err == nil {
				t.Fatalf("%s: ApplyChanges took an edge changed twice", label)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cold, coldErr := Run(ng, p, cfg)
		from := prev
		res, ps, err := Build(ng, p, cfg, prev)
		if sum.TopologyChanged {
			if !errors.Is(err, ErrOtherStructure) {
				t.Fatalf("%s: built from a prev of another structure: %v", label, err)
			}
			from = nil
			res, ps, err = Build(ng, p, cfg, nil)
		}
		if (err == nil) != (coldErr == nil) {
			t.Fatalf("%s: delta build error %v, cold build error %v", label, err, coldErr)
		}
		if err != nil {
			tally.refused++
			continue
		}
		// res was built from prev undigested; prev's own fingerprint is
		// checked only now, and digests it for the second build.
		if got, want := prev.Fingerprint(), coldPrev.Fingerprint(); got != want {
			t.Fatalf("%s: the result before it fingerprints %016x, cold %016x", label, got, want)
		}
		if from != nil {
			dig, _, err := Build(ng, p, cfg, prev)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got, want := dig.Fingerprint(), cold.Fingerprint(); got != want {
				t.Fatalf("%s: built from a digested prev, fingerprint %016x, cold %016x", label, got, want)
			}
		}
		sameAsCold(t, label, res, cold)
		withinBounds(t, label, ng, p, res, ps)

		moved := 0
		for v, w := range wantMoved(res, from) {
			if res.RowMoved(v) != w {
				t.Fatalf("%s: RowMoved(%d) = %v, want %v", label, v, res.RowMoved(v), w)
			}
			if w {
				moved++
			}
		}
		rebuilt := 0
		for i, a := range AffectedInstances(ng, prev) {
			if a {
				rebuilt++
			} else if res.Instances[i] != prev.Instances[i] {
				t.Fatalf("%s: unaffected instance %d was not reused by pointer", label, i)
			}
		}
		if d := ps.Damage(); ps.InstancesTotal != len(cold.Instances) || ps.InstancesRebuilt+ps.InstancesReused != ps.InstancesTotal || ps.InstancesRebuilt != rebuilt || d < 0 || d > 1 {
			t.Fatalf("%s: stats %+v (damage %v) for %d instances, %d affected", label, ps, d, len(cold.Instances), rebuilt)
		}

		if ps.InstancesRepaired > 0 {
			tally.repairs++
		}
		if from != nil && len(prev.Instances) == len(res.Instances) {
			tally.fellBack += ps.InstancesRebuilt - ps.InstancesRepaired
		}
		if from != nil && ps.Damage() > 0.5 {
			tally.heavy++
		}
		if moved > 0 && moved < len(res.Lists) {
			tally.partial++
		}
		if len(res.Instances) > len(prev.Instances) {
			tally.deeper++
		}
		g, prev, coldPrev = ng, res, cold
	}
	if got, want := prev.Fingerprint(), coldPrev.Fingerprint(); got != want {
		t.Fatalf("last step: fingerprint %016x, cold %016x", got, want)
	}
	return tally
}

// withinBounds holds a build to the bounds the code proves in the
// paper's currency, with c = σ(σ+1)/2, the Lemma 3.4 cap on each unit's
// announcements that core.Build always sets (CapMessages):
//   - every instance's active rounds are at most its Budget, a repair's
//     sub-run included: the engine stops there (MaxRounds);
//   - no unit, a node's own or a relay cell, announces more than c times,
//     so every instance's SelfEmits[v] ≤ c;
//   - a real message over the directed edge (v, u) is the announcement of
//     one unit, the cell of v's half of the line that borders u's half
//     (v's own unit when v owns no cell of it), so an instance sends at
//     most Σ_v deg(v)·c = 2m·c messages, and a repair's sub-run, on the
//     subgraph its halo induces, at most Σ over halo nodes of deg(v)·c ≤
//     |halo|·Δ·c; summed over a build's repairs, RepairMessages ≤
//     RepairNodes·Δ·c.
//
// Lemma 3.4 restricted to the region, Σ over region nodes of deg(v)·c,
// is not a bound the code proves: the halo nodes around the region send
// too, so it is not asserted.
func withinBounds(t *testing.T, label string, g *graph.Graph, p Params, res *Result, ps PatchStats) {
	t.Helper()
	sigma := int64(p.Sigma)
	c := sigma * (sigma + 1) / 2
	maxDeg := 0
	for v := range g.N() {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	for i, inst := range res.Instances {
		det := inst.Det
		if det.Metrics.ActiveRounds > det.Metrics.BudgetRounds {
			t.Fatalf("%s: instance %d ran %d active rounds, budget %d", label, i, det.Metrics.ActiveRounds, det.Metrics.BudgetRounds)
		}
		if m := det.Metrics.Messages; m > 2*int64(g.M())*c {
			t.Fatalf("%s: instance %d sent %d messages, more than 2m·σ(σ+1)/2 = %d", label, i, m, 2*int64(g.M())*c)
		}
		for v, e := range det.SelfEmits {
			if int64(e) > c {
				t.Fatalf("%s: instance %d: node %d announced %d times, Lemma 3.4 caps it at %d", label, i, v, e, c)
			}
		}
	}
	if bound := int64(ps.RepairNodes) * int64(maxDeg) * c; ps.RepairMessages > bound {
		t.Fatalf("%s: repairs sent %d messages on %d halo nodes, more than |halo|·Δ·σ(σ+1)/2 = %d", label, ps.RepairMessages, ps.RepairNodes, bound)
	}
}

// sameAsCold fails unless res has cold's lists, table, every instance's
// detection lists (Via included), h′, setup and budget rounds.
func sameAsCold(t *testing.T, label string, res, cold *Result) {
	t.Helper()
	if res.HPrime != cold.HPrime || res.SetupRounds != cold.SetupRounds || res.BudgetRounds != cold.BudgetRounds || len(res.Instances) != len(cold.Instances) {
		t.Fatalf("%s: h′ %d, setup %d, budget %d, %d instances; cold %d, %d, %d, %d", label,
			res.HPrime, res.SetupRounds, res.BudgetRounds, len(res.Instances), cold.HPrime, cold.SetupRounds, cold.BudgetRounds, len(cold.Instances))
	}
	for i, inst := range cold.Instances {
		if !reflect.DeepEqual(detLists(res.Instances[i].Det), detLists(inst.Det)) {
			t.Fatalf("%s: instance %d: detection lists differ from a cold run's", label, i)
		}
	}
	if !reflect.DeepEqual(res.Lists, cold.Lists) || !reflect.DeepEqual(res.Table, cold.Table) {
		t.Fatalf("%s: lists or table differ from a cold run's", label)
	}
}

// wantMoved is RowMoved's specification: every row when there is no
// comparable previous result (none, or a hierarchy of another depth),
// otherwise the rows at which some instance's list differs from prev's.
func wantMoved(res, prev *Result) []bool {
	moved := make([]bool, len(res.Lists))
	var a, b []detection.Entry
	for v := range moved {
		moved[v] = prev == nil || len(prev.Instances) != len(res.Instances)
		for i := 0; !moved[v] && i < len(res.Instances); i++ {
			a, b = res.Instances[i].Det.List(v, a), prev.Instances[i].Det.List(v, b)
			moved[v] = !slices.Equal(a, b)
		}
	}
	return moved
}

// drawn applies one batch of kind from graph.RandomChanges to g.
func drawn(tb testing.TB, g *graph.Graph, kind graph.ChangeKind, k int, rng *rand.Rand) *graph.Graph {
	tb.Helper()
	ng, _, err := g.ApplyChanges(graph.RandomChanges(g, kind, k, rng))
	if err != nil {
		tb.Fatal(err)
	}
	return ng
}

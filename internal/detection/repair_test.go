package detection

import (
	"math/rand"
	"slices"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// TestRepairMatchesRun holds Repair to a full Run on the reweighted graph:
// every list, Via and Flag included, over random graphs, bases, Flags nil
// and set, and batches of ±1 nudges or random reweights
// (graph.RandomChanges), with the moved edges found as core.Build finds
// them (graph.Reweights, then Params.Length). A node outside the region
// keeps the previous list, and the lists the sub-run computes are the
// full run's.
func TestRepairMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var arena Arena
	repaired, fellBack := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 16 + rng.Intn(40)
		g := graph.RandomConnected(n, 0.06+rng.Float64()*0.12, 24, rng)
		src := make([]bool, n)
		for v := range src {
			src[v] = rng.Intn(3) == 0
		}
		p := Params{IsSource: src, H: 8 + rng.Intn(24), Sigma: 1 + rng.Intn(6), Base: 1 + 2*rng.Float64(), CapMessages: true}
		if trial%2 == 0 {
			p.Flags = make([]uint8, n)
			for v := range p.Flags {
				p.Flags[v] = uint8(rng.Intn(256))
			}
		}
		prev, err := arena.Run(g, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		kind := [2]graph.ChangeKind{graph.ChangeNudge, graph.ChangeReweight}[rng.Intn(2)]
		ng, _, err := g.ApplyChanges(graph.RandomChanges(g, kind, 1+rng.Intn(3), rng))
		if err != nil {
			t.Fatal(err)
		}
		changed, _ := ng.Reweights(g)
		var moved []graph.Reweight
		for _, e := range changed {
			if p.Length(e.Was) != p.Length(e.Now) {
				moved = append(moved, e)
			}
		}
		rep, err := arena.Repair(ng, p, 0, prev, moved)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Result == nil {
			fellBack++
			continue
		}
		repaired++
		want, err := Run(ng, p, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, old := lists(rep.Result), lists(prev)
		for v, l := range lists(want) {
			if !slices.Equal(got[v], l) {
				t.Fatalf("trial %d node %d: repaired list %v, full run %v", trial, v, got[v], l)
			}
			if _, in := slices.BinarySearch(rep.Region, int32(v)); !in && !slices.Equal(got[v], old[v]) {
				t.Fatalf("trial %d node %d: outside the region, yet the list moved", trial, v)
			}
		}
		if len(moved) == 0 && (len(rep.Region) != 0 || rep.Halo != 0) {
			t.Fatalf("trial %d: no length moved, yet region %v and a halo of %d", trial, rep.Region, rep.Halo)
		}
	}
	t.Logf("%d repaired, %d ran in full", repaired, fellBack)
	if repaired == 0 {
		t.Fatal("no trial was repaired")
	}
}

// TestRepairDeclines: Delays, a bandwidth limit and σ = 0 are the cases
// Repair leaves to a full run.
func TestRepairDeclines(t *testing.T) {
	g := graph.Path(4, 3, rand.New(rand.NewSource(1)))
	p := Params{IsSource: everyKth(4, 2), H: 12, Sigma: 2, Base: 1}
	prev, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	delayed := p
	delayed.Delays = make([]int32, 4)
	none := p
	none.Sigma = 0
	var arena Arena
	for _, c := range []struct {
		name string
		p    Params
		b    int
	}{{"delays", delayed, 0}, {"bandwidth", p, 64}, {"sigma 0", none, 0}} {
		rep, err := arena.Repair(g, c.p, c.b, prev, nil)
		if err != nil || rep.Result != nil {
			t.Fatalf("%s: Repair = %+v, %v; want a full run", c.name, rep, err)
		}
	}
}

package detection_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pde/internal/compact"
	"pde/internal/congest"
	"pde/internal/detection"
	"pde/internal/graph"
)

// flagsHold fails unless every entry of every list in res carries its
// source's flag bits: Flags[Src], or 0 when flags is nil.
func flagsHold(t *testing.T, label string, res *detection.Result, n int, flags []uint8) {
	t.Helper()
	var buf []detection.Entry
	for v := range n {
		buf = res.List(v, buf)
		for _, e := range buf {
			want := uint8(0)
			if flags != nil {
				want = flags[e.Src]
			}
			if e.Flag != want {
				t.Fatalf("%s: node %d, source %d: flag %d, Params.Flags says %d", label, v, e.Src, e.Flag, want)
			}
		}
	}
}

// TestFlagIsTheSourcesFlag: an entry's flag is a property of its source
// alone, Params.Flags[Src], whatever path the pair took to the node — on
// cold runs, on repairs, and on the flagged levels of a compact scheme
// (where a source's flag marks membership in the next level, §4.3) built
// cold and updated on the delta path.
func TestFlagIsTheSourcesFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var arena detection.Arena
	repaired := 0
	for trial := 0; trial < 40; trial++ {
		n := 16 + rng.Intn(40)
		g := graph.RandomConnected(n, 0.06+rng.Float64()*0.12, 24, rng)
		src := make([]bool, n)
		for v := range src {
			src[v] = rng.Intn(3) == 0
		}
		p := detection.Params{IsSource: src, H: 8 + rng.Intn(24), Sigma: 1 + rng.Intn(6), Base: 1 + 2*rng.Float64(), CapMessages: true}
		if trial%3 != 0 {
			p.Flags = make([]uint8, n)
			for v := range p.Flags {
				p.Flags[v] = uint8(rng.Intn(256))
			}
		}
		prev, err := arena.Run(g, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		flagsHold(t, fmt.Sprintf("trial %d, cold", trial), prev, n, p.Flags)
		ng, _, err := g.ApplyChanges(graph.RandomChanges(g, graph.ChangeNudge, 1+rng.Intn(3), rng))
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
		if rep.Result != nil {
			repaired++
			flagsHold(t, fmt.Sprintf("trial %d, repaired", trial), rep.Result, n, p.Flags)
		}
	}
	if repaired == 0 {
		t.Fatal("no trial was repaired")
	}

	g, err := graph.Generate("random", 96, 16, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	cp := compact.Params{K: 3, Epsilon: 0.5, C: 1.5, Strategy: compact.StrategyNone, Seed: 2}
	sch, _, err := compact.Build(g, cp, congest.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := g.ApplyChanges(graph.RandomChanges(g, graph.ChangeNudge, 4, rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	upd, _, err := compact.Build(ng, cp, congest.Config{}, sch)
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for name, s := range map[string]*compact.Scheme{"cold": sch, "updated": upd} {
		for l, r := range s.R {
			if r == nil {
				continue
			}
			for _, f := range r.Params.Flags {
				flagged += int(f)
			}
			for i, inst := range r.Instances {
				flagsHold(t, fmt.Sprintf("compact %s, level %d, instance %d", name, l, i), inst.Det, g.N(), r.Params.Flags)
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no compact level flags a source")
	}
}

package rtc

import (
	"math/rand"
	"strings"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// TestBuildRejects pins Build's refusals: parameters no construction
// exists for, and tables too starved for Lemma 4.4's forest — a node whose
// skeleton tables are empty has no s'_v to be labeled with.
func TestBuildRejects(t *testing.T) {
	g := graph.RandomConnected(30, 0.1, 8, rand.New(rand.NewSource(2)))
	empty, err := graph.NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		p    Params
		frag string
	}{
		{"empty graph", empty, Params{K: 2, Epsilon: 0.5}, "empty graph"},
		{"k", g, Params{K: 0, Epsilon: 0.5}, "k=0"},
		{"epsilon", g, Params{K: 2, Epsilon: 0}, "epsilon"},
		// One forced skeleton node at the end of a long path and a
		// one-hop horizon: the far end never hears of it.
		{"starved", graph.Path(60, 1, rand.New(rand.NewSource(1))), Params{K: 2, Epsilon: 0.5, SampleProb: 1e-9, HOverride: 1, SigmaOverride: 1}, "detected no skeleton node"},
	} {
		if _, err := Build(tc.g, tc.p, congest.Config{}); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: Build = %v, want an error containing %q", tc.name, err, tc.frag)
		}
	}
}

// TestFingerprintIsTheRecipe: the digest the serving layer stamps as the
// table generation repeats across rebuilds and build-worker widths and
// moves with the seed.
func TestFingerprintIsTheRecipe(t *testing.T) {
	g := graph.RandomConnected(36, 0.1, 10, rand.New(rand.NewSource(6)))
	p := Params{K: 2, Epsilon: 0.25, SampleProb: 0.25, Seed: 4}
	build := func(p Params, cfg congest.Config) uint64 {
		t.Helper()
		sch, err := Build(g, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sch.Fingerprint()
	}
	want := build(p, congest.Config{})
	if got := build(p, congest.Config{Parallel: true, Workers: 3}); got != want {
		t.Fatalf("3-worker build fingerprints %016x, sequential %016x", got, want)
	}
	p.Seed++
	if build(p, congest.Config{}) == want {
		t.Fatal("a different skeleton sample kept the fingerprint")
	}
}

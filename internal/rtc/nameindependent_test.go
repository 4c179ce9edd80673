package rtc

import (
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

func TestNameIndependentRoutesById(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(35, 0.12, 12, rng)
	sch := buildScheme(t, g, 2, 3)
	d := graph.HopDiameter(g)
	ni, err := MakeNameIndependent(sch, d)
	if err != nil {
		t.Fatal(err)
	}
	ap := graph.AllPairs(g)
	for v := 0; v < g.N(); v += 3 {
		for w := 0; w < g.N(); w += 3 {
			if v == w {
				continue
			}
			rt, err := ni.Route(v, w)
			if err != nil {
				t.Fatal(err)
			}
			if rt.Path[len(rt.Path)-1] != w {
				t.Fatalf("route %d->%d ended at %d", v, w, rt.Path[len(rt.Path)-1])
			}
			est, err := ni.DistEstimate(v, w)
			if err != nil {
				t.Fatal(err)
			}
			if est < float64(ap.Dist(v, w))-1e-6 {
				t.Fatalf("estimate %f below exact %d", est, ap.Dist(v, w))
			}
		}
	}
	// The directory costs the Ω(n)-ish broadcast the paper warns about.
	if ni.DirectoryRounds != g.N()+d {
		t.Fatalf("directory rounds %d, want n+D = %d", ni.DirectoryRounds, g.N()+d)
	}
	if ni.TableWords(0) <= sch.TableWords(0) {
		t.Fatal("directory must add storage")
	}
}

func TestNameIndependentValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(12, 0.3, 5, rng)
	sch, err := Build(g, Params{K: 2, Epsilon: 0.5, SampleProb: 0.4, Seed: 1}, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MakeNameIndependent(sch, -1); err == nil {
		t.Fatal("expected diameter validation error")
	}
	ni, err := MakeNameIndependent(sch, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ni.Route(0, 99); err == nil {
		t.Fatal("expected out-of-range destination error")
	}
	if _, err := ni.DistEstimate(0, -1); err == nil {
		t.Fatal("expected out-of-range destination error")
	}
}

package pde

import (
	"testing"

	"pde/internal/baseline"
)

// The facade tests exercise the public API end to end, the way the README
// quick start does.

func TestQuickStartFlow(t *testing.T) {
	g := RandomGraph(30, 0.15, 50, 1)
	res, err := ApproxAPSP(g, 0.5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	truth := GroundTruth(g)
	for v := 0; v < g.N(); v++ {
		if len(res.Lists[v]) != g.N() {
			t.Fatalf("node %d estimated %d of %d nodes", v, len(res.Lists[v]), g.N())
		}
		for _, e := range res.Lists[v] {
			exact := float64(truth.Dist(v, int(e.Src)))
			if e.Dist < exact-1e-6 || e.Dist > 1.5*exact+1e-6 {
				t.Fatalf("estimate %f for exact %f", e.Dist, exact)
			}
		}
	}
	rt, err := CompileOracle(res).Route(g, 0, int32(g.N()-1))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Path[len(rt.Path)-1] != g.N()-1 {
		t.Fatal("route did not deliver")
	}
}

func TestFacadeGenerators(t *testing.T) {
	if g := GeometricGraph(25, 0.4, 20, 2); !g.Connected() {
		t.Fatal("geometric graph disconnected")
	}
	if g := InternetGraph(40, 50, 3); !g.Connected() {
		t.Fatal("internet graph disconnected")
	}
	b := NewBuilder(2)
	b.AddEdge(0, 1, 7)
	g, err := b.Build()
	if err != nil || g.M() != 1 {
		t.Fatalf("builder: %v", err)
	}
}

func TestFacadeRoutingSchemes(t *testing.T) {
	g := RandomGraph(30, 0.15, 20, 4)
	sch, err := BuildRoutingScheme(g, RoutingParams{K: 2, Epsilon: 0.5, SampleProb: 0.3, Seed: 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sch.Route(0, sch.Labels[g.N()-1])
	if err != nil || rt.Path[len(rt.Path)-1] != g.N()-1 {
		t.Fatalf("rtc route: %v", err)
	}
	csch, err := BuildCompactScheme(g, CompactParams{K: 2, Epsilon: 0.5, C: 1.5, Seed: 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	crt, err := csch.Route(0, csch.Labels[g.N()-1])
	if err != nil || crt.Path[len(crt.Path)-1] != g.N()-1 {
		t.Fatalf("compact route: %v", err)
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := RandomGraph(20, 0.2, 10, 5)
	truth := GroundTruth(g)
	bf, err := BellmanFordAPSP(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := FloodingAPSP(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if bf.Dist[v][w] != truth.Dist(v, w) || fl.Dist[v][w] != truth.Dist(v, w) {
				t.Fatalf("baseline mismatch at (%d,%d)", v, w)
			}
		}
	}
	src := make([]bool, g.N())
	src[0] = true
	ex, err := baseline.ExactDetect(g, baseline.ExactParams{IsSource: src, H: 3, Sigma: 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Lists[0]) != 1 {
		t.Fatal("exact detection lost the source itself")
	}
}

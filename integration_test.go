package pde

import (
	"testing"

	"pde/internal/baseline"
	"pde/internal/graph"
)

// End-to-end integration: run the full stack (PDE APSP, Theorem 4.5
// scheme, compact hierarchy, baselines) on one topology and cross-check
// them against each other — the workflow a downstream user of the library
// would compose.
func TestEndToEndPipeline(t *testing.T) {
	g := InternetGraph(40, 30, 9)
	truth := GroundTruth(g)

	// 1. Approximate APSP vs the two exact baselines.
	apsp, err := ApproxAPSP(g, 0.5, Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := BellmanFordAPSP(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for _, e := range apsp.Lists[v] {
			exact := bf.Dist[v][e.Src]
			if exact != truth.Dist(v, int(e.Src)) {
				t.Fatal("baselines disagree with ground truth")
			}
			if e.Dist < float64(exact)-1e-6 || e.Dist > 1.5*float64(exact)+1e-6 {
				t.Fatalf("APSP estimate %f out of [wd, 1.5wd] for wd=%d", e.Dist, exact)
			}
		}
	}

	// 2. Theorem 4.5 routing over the same network.
	sch, err := BuildRoutingScheme(g, RoutingParams{
		K: 2, Epsilon: 0.25, SampleProb: 0.3, Seed: 4,
	}, Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	// 3. Compact hierarchy.
	csch, err := BuildCompactScheme(g, CompactParams{
		K: 2, Epsilon: 0.25, C: 1.5, Seed: 4,
	}, Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v += 3 {
		for w := 2; w < g.N(); w += 3 {
			if v == w {
				continue
			}
			exact := truth.Dist(v, w)
			rt1, err := sch.Route(v, sch.Labels[w])
			if err != nil {
				t.Fatal(err)
			}
			if rt1.Stretch(exact) > 11.0+0.5 {
				t.Fatalf("rtc stretch %f", rt1.Stretch(exact))
			}
			rt2, err := csch.Route(v, csch.Labels[w])
			if err != nil {
				t.Fatal(err)
			}
			if rt2.Stretch(exact) > 5.0+0.5 {
				t.Fatalf("compact stretch %f", rt2.Stretch(exact))
			}
		}
	}

	// 4. The Figure 1 pipeline: gadget, exact baseline, PDE.
	f := graph.NewFigure1(4, 4)
	isSource := make([]bool, f.G.N())
	for _, s := range f.Sources {
		isSource[s] = true
	}
	ex, err := baseline.ExactDetect(f.G, baseline.ExactParams{
		IsSource: isSource, H: 5, Sigma: 4,
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		wantSrcs, wantDist := f.ExpectedList(i)
		got := ex.Lists[f.UNode[i-1]]
		if len(got) != len(wantSrcs) {
			t.Fatalf("u_%d detected %d sources", i, len(got))
		}
		for j := range got {
			if int(got[j].Src) != wantSrcs[j] || got[j].Dist != wantDist {
				t.Fatalf("u_%d entry %d = %+v", i, j, got[j])
			}
		}
	}
}

package setdist

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"

	"math/rand"
)

// testSpecs is the three-backend matrix the differential tests run over:
// the same specs the scheme benchmark pins, so an engine/scheme
// disagreement here would also show up in committed artifacts.
func testSpecs() []scheme.Spec {
	base := scheme.Spec{Topology: "community", N: 64, Eps: 0.5, MaxW: 8, Seed: 21}
	rtcSpec := base
	rtcSpec.Scheme = "rtc"
	rtcSpec.K = 2
	rtcSpec.SampleProb = 0.25
	compactSpec := base
	compactSpec.Scheme = "compact"
	compactSpec.K = 3
	return []scheme.Spec{base, rtcSpec, compactSpec}
}

// pathInstance compiles an oracle instance over the weighted path
// 0 -1- 1 -2- 2 -3- 3 (edge weights 1, 2, 3).
func pathInstance(t *testing.T) scheme.Instance {
	t.Helper()
	g, err := graph.NewBuilder(4).
		AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return oracleInstanceOn(t, g)
}

// oracleInstanceOn runs the full PDE construction on an arbitrary graph
// (the prebuilt-tables path, which does not insist the graph came from a
// registered generator — the hook for disconnected-graph tests).
func oracleInstanceOn(t *testing.T, g *graph.Graph) scheme.Instance {
	t.Helper()
	res, err := core.Run(g, core.APSPParams(g.N(), 0.5), congest.Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := scheme.NewOracleInstance(
		scheme.Spec{Topology: "random", N: g.N(), Eps: 0.5, MaxW: 8, Seed: 1}, g, res, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestEmptySetsRejected(t *testing.T) {
	inst := pathInstance(t)
	for _, tc := range []struct{ a, b []int32 }{
		{nil, []int32{0}},
		{[]int32{0}, nil},
		{nil, nil},
	} {
		if _, err := Eval(inst, tc.a, tc.b, Options{}); err == nil {
			t.Errorf("Eval(|A|=%d, |B|=%d): want error, got nil", len(tc.a), len(tc.b))
		} else if !strings.Contains(err.Error(), "non-empty") {
			t.Errorf("unexpected error: %v", err)
		}
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	inst := pathInstance(t)
	if _, err := Eval(inst, []int32{0, 4}, []int32{1}, Options{}); err == nil {
		t.Error("A out of range: want error")
	}
	if _, err := Eval(inst, []int32{0}, []int32{-1}, Options{}); err == nil {
		t.Error("B negative: want error")
	}
}

func TestSingletons(t *testing.T) {
	inst := pathInstance(t)
	// Identical singletons: every aggregate is exactly zero.
	res, err := Eval(inst, []int32{2}, []int32{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AB.Chamfer != 0 || res.BA.Chamfer != 0 || res.Hausdorff != 0 {
		t.Errorf("identical singletons: want all-zero aggregates, got %+v", res)
	}
	if res.Evaluated != 0 {
		t.Errorf("self match must not issue queries, evaluated %d", res.Evaluated)
	}
	// Distinct singletons: both directions see the single pair estimate;
	// the aggregate is symmetric on an undirected graph's estimates only
	// if the scheme is — so just require both directions finite and equal
	// across Chamfer/Hausdorff/MeanMin within a direction.
	res, err = Eval(inst, []int32{0}, []int32{3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]Aggregates{"AB": res.AB, "BA": res.BA} {
		if !d.Finite() {
			t.Fatalf("%s: unreachable on a connected path", name)
		}
		if d.Chamfer != d.Hausdorff || d.Chamfer != d.MeanMin {
			t.Errorf("%s: singleton aggregates disagree: %+v", name, d)
		}
		if d.Chamfer < 6 { // true distance 1+2+3; estimates never undershoot
			t.Errorf("%s: estimate %v below true distance 6", name, d.Chamfer)
		}
	}
}

func TestOverlapMembersAreZero(t *testing.T) {
	inst := pathInstance(t)
	// A ⊂ B: every member of A has a zero self match, so A→B aggregates
	// are all zero while B→A may not be.
	res, err := Eval(inst, []int32{1, 2}, []int32{0, 1, 2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AB.Chamfer != 0 || res.AB.Hausdorff != 0 || res.AB.MeanMin != 0 {
		t.Errorf("A⊂B: want zero A→B aggregates, got %+v", res.AB)
	}
	if res.BA.Chamfer <= 0 {
		t.Errorf("B→A Chamfer should be positive (0 and 3 are not in A): %+v", res.BA)
	}
	if res.BA.Unreachable != 0 {
		t.Errorf("connected path: unreachable %d", res.BA.Unreachable)
	}
}

// exactInstance answers every query with the exact Dijkstra distance —
// the idealized stretch-1 scheme. It lets the unreachable tests run on a
// disconnected graph (which the real construction rejects at its BFS
// setup) while still satisfying the engine's only soundness requirement:
// estimates never undershoot the true distance.
type exactInstance struct {
	g   *graph.Graph
	sps []*graph.SSSP
}

func newExactInstance(g *graph.Graph) *exactInstance {
	e := &exactInstance{g: g, sps: make([]*graph.SSSP, g.N())}
	for v := range e.sps {
		e.sps[v] = graph.Dijkstra(g, v)
	}
	return e
}

func (e *exactInstance) Scheme() string      { return "exact" }
func (e *exactInstance) Spec() scheme.Spec   { return scheme.Spec{} }
func (e *exactInstance) Graph() *graph.Graph { return e.g }
func (e *exactInstance) Fingerprint() uint64 { return 0 }
func (e *exactInstance) BuildNS() int64      { return 0 }
func (e *exactInstance) AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int) {
	for i, q := range qs {
		d := e.sps[q.V].Dist[q.S]
		if d == graph.Infinity {
			out[i] = oracle.Answer{}
			continue
		}
		out[i] = oracle.Answer{Est: core.Estimate{Dist: float64(d), Src: q.S}, OK: true}
	}
}
func (e *exactInstance) Route(v int, s int32) (*core.Route, error) { return nil, nil }
func (e *exactInstance) Accounting() scheme.Accounting             { return scheme.Accounting{} }

// disconnectedInstance builds two components: a triangle {0,1,2} and an
// edge {3,4}.
func disconnectedInstance(t *testing.T) scheme.Instance {
	t.Helper()
	g, err := graph.NewBuilder(5).
		AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(0, 2, 2).
		AddEdge(3, 4, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return newExactInstance(g)
}

func TestUnreachableIsInf(t *testing.T) {
	inst := disconnectedInstance(t)
	// Fully cross-component: everything is +Inf, like graph.Stretch's
	// unreachable-baseline convention.
	res, err := Eval(inst, []int32{0, 1}, []int32{3, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]Aggregates{"AB": res.AB, "BA": res.BA} {
		if !math.IsInf(d.Chamfer, 1) || !math.IsInf(d.Hausdorff, 1) || !math.IsInf(d.MeanMin, 1) {
			t.Errorf("%s: want +Inf aggregates across components, got %+v", name, d)
		}
		if d.Unreachable != d.Members {
			t.Errorf("%s: want all members unreachable, got %d/%d", name, d.Unreachable, d.Members)
		}
	}
	if !math.IsInf(res.Hausdorff, 1) {
		t.Error("symmetric Hausdorff should be +Inf")
	}

	// Mixed: one member of A sits in B's component, the other does not.
	// The stranded member poisons Chamfer/Hausdorff/MeanMin with +Inf but
	// is counted, not dropped.
	res, err = Eval(inst, []int32{0, 3}, []int32{4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AB.Unreachable != 1 {
		t.Errorf("want exactly one unreachable member, got %d", res.AB.Unreachable)
	}
	if !math.IsInf(res.AB.Chamfer, 1) {
		t.Error("one unreachable member must make Chamfer +Inf")
	}
	if res.BA.Unreachable != 0 || math.IsInf(res.BA.Chamfer, 1) {
		t.Errorf("B→A is within one component: %+v", res.BA)
	}

	// The infinite landmark keys must not change answers either: pruned
	// and naive agree on sets straddling both components.
	a, b := []int32{0, 1, 3}, []int32{2, 4}
	pruned, err := Eval(inst, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Eval(inst, a, b, Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	sameAggregates(t, "AB", pruned.AB, naive.AB)
	sameAggregates(t, "BA", pruned.BA, naive.BA)
}

// seededSets draws overlapping member sets with duplicates allowed —
// the adversarial shape for the pruning bookkeeping.
func seededSets(n int, seed int64) (a, b []int32) {
	rng := rand.New(rand.NewSource(seed))
	a = make([]int32, 12+rng.Intn(20))
	b = make([]int32, 12+rng.Intn(20))
	for i := range a {
		a[i] = int32(rng.Intn(n))
	}
	for i := range b {
		b[i] = int32(rng.Intn(n))
	}
	// Force overlap.
	b[0] = a[0]
	return a, b
}

// sameBits requires exact (bit-level) equality, the -check guarantee the
// benchmark artifacts rely on.
func sameBits(t *testing.T, name string, pruned, naive float64) {
	t.Helper()
	if math.Float64bits(pruned) != math.Float64bits(naive) {
		t.Errorf("%s: pruned %v != naive %v", name, pruned, naive)
	}
}

func sameAggregates(t *testing.T, name string, pruned, naive Aggregates) {
	t.Helper()
	sameBits(t, name+".Chamfer", pruned.Chamfer, naive.Chamfer)
	sameBits(t, name+".Hausdorff", pruned.Hausdorff, naive.Hausdorff)
	sameBits(t, name+".MeanMin", pruned.MeanMin, naive.MeanMin)
	if pruned.Members != naive.Members || pruned.Unreachable != naive.Unreachable {
		t.Errorf("%s: member counts diverge: pruned %+v naive %+v", name, pruned, naive)
	}
}

// TestDifferentialAllSchemes pins the engine's core promise: pruning
// never changes an answer, on any backend.
func TestDifferentialAllSchemes(t *testing.T) {
	for _, sp := range testSpecs() {
		sp := sp
		t.Run(sp.Normalized().Scheme, func(t *testing.T) {
			t.Parallel()
			inst, err := scheme.Build(sp)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 4; seed++ {
				a, b := seededSets(inst.Graph().N(), seed)
				pruned, err := Eval(inst, a, b, Options{})
				if err != nil {
					t.Fatal(err)
				}
				naive, err := Eval(inst, a, b, Options{Naive: true})
				if err != nil {
					t.Fatal(err)
				}
				sameAggregates(t, "AB", pruned.AB, naive.AB)
				sameAggregates(t, "BA", pruned.BA, naive.BA)
				sameBits(t, "Hausdorff", pruned.Hausdorff, naive.Hausdorff)
				if pruned.Pairs != naive.Pairs {
					t.Errorf("pair accounting diverges: %d vs %d", pruned.Pairs, naive.Pairs)
				}
				if pruned.Evaluated > naive.Evaluated {
					t.Errorf("pruned evaluated more than naive: %d > %d", pruned.Evaluated, naive.Evaluated)
				}
				if pruned.Evaluated+pruned.Pruned != pruned.Pairs {
					t.Errorf("accounting: evaluated %d + pruned %d != pairs %d",
						pruned.Evaluated, pruned.Pruned, pruned.Pairs)
				}
			}
		})
	}
}

// TestWorkerWidthDeterminism pins bit-identical results at every fan-out
// width, the property the sequential member-order reduction buys.
func TestWorkerWidthDeterminism(t *testing.T) {
	inst, err := scheme.Build(testSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	a, b := seededSets(inst.Graph().N(), 7)
	base, err := Eval(inst, a, b, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 3, 8} {
		got, err := Eval(inst, a, b, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		sameAggregates(t, "AB", got.AB, base.AB)
		sameAggregates(t, "BA", got.BA, base.BA)
		if got.Evaluated != base.Evaluated {
			t.Errorf("workers=%d: evaluated %d != %d", w, got.Evaluated, base.Evaluated)
		}
	}
}

// TestNaiveMatchesDirectBatch cross-checks the naive reference itself
// against a hand-rolled AnswerInto loop, so the differential test is not
// comparing the engine against its own bugs.
func TestNaiveMatchesDirectBatch(t *testing.T) {
	inst := pathInstance(t)
	a := []int32{0, 2}
	b := []int32{1, 3}
	res, err := Eval(inst, a, b, Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	wantChamfer := 0.0
	for _, x := range a {
		qs := make([]oracle.Query, len(b))
		out := make([]oracle.Answer, len(b))
		for i, y := range b {
			qs[i] = oracle.Query{V: x, S: y}
		}
		inst.AnswerInto(qs, out, 1)
		best := math.Inf(1)
		for _, ans := range out {
			if ans.OK && ans.Est.Dist < best {
				best = ans.Est.Dist
			}
		}
		wantChamfer += best
	}
	sameBits(t, "AB.Chamfer", res.AB.Chamfer, wantChamfer)
}

// TestLandmarksOncePerGeneration pins where the pruned evaluation's keys
// come from: the graph the instance carries computes them on first use
// and every later Eval — any sets, either direction — reads the same
// arrays.
func TestLandmarksOncePerGeneration(t *testing.T) {
	inst, err := scheme.Build(testSpecs()[2])
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph()
	var first *graph.Landmarks
	for seed := int64(1); seed <= 3; seed++ {
		a, b := seededSets(g.N(), seed)
		if _, err := Eval(inst, a, b, Options{}); err != nil {
			t.Fatal(err)
		}
		lm := g.Landmarks()
		if first == nil {
			first = lm
		}
		if lm != first || &lm.Key1[0] != &first.Key1[0] {
			t.Fatalf("eval %d: landmark keys were recomputed", seed)
		}
	}
	if len(first.Key1) != g.N() || len(first.Aux) == 0 {
		t.Fatalf("landmarks: %d keys, %d auxiliaries on a connected %d-node graph", len(first.Key1), len(first.Aux), g.N())
	}
}

// TestConcurrentFirstUse races 8 evaluations into a generation whose keys
// nobody has computed yet (run under -race in CI): all of them must read
// one key set and agree with the naive evaluation.
func TestConcurrentFirstUse(t *testing.T) {
	inst, err := scheme.Build(testSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	a, b := seededSets(inst.Graph().N(), 9)
	naive, err := Eval(inst, a, b, Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	const racers = 8
	results := make([]*Result, racers)
	keys := make([]*graph.Landmarks, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Eval(inst, a, b, Options{Workers: 1})
			if err != nil {
				t.Error(err)
				return
			}
			results[i], keys[i] = res, inst.Graph().Landmarks()
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			continue // its goroutine already reported
		}
		if keys[i] != keys[0] {
			t.Errorf("racer %d read a different key set", i)
		}
		sameAggregates(t, "AB", res.AB, naive.AB)
		sameAggregates(t, "BA", res.BA, naive.BA)
		if res.Evaluated != results[0].Evaluated {
			t.Errorf("racer %d evaluated %d estimates, racer 0 %d", i, res.Evaluated, results[0].Evaluated)
		}
	}
}

// BenchmarkEval is the grid behind the landmark-pruning row of the
// keep-or-delete ledger (docs/architecture.md): pruned against naive, on
// a cheap-estimate instance (the compiled oracle) and an
// expensive-estimate one (the compact hierarchy), at the three set sizes
// callers send. One op is one request; eight seeded requests are cycled.
func BenchmarkEval(b *testing.B) {
	base := scheme.Spec{Topology: "community", N: 256, Eps: 0.5, MaxW: 8, Seed: 21}
	compactSpec := base
	compactSpec.Scheme, compactSpec.K = "compact", 3
	for _, sp := range []scheme.Spec{base, compactSpec} {
		inst, err := scheme.Build(sp)
		if err != nil {
			b.Fatal(err)
		}
		n := inst.Graph().N()
		for _, size := range [][2]int{{32, 64}, {48, 128}, {64, 224}} {
			rng := rand.New(rand.NewSource(int64(size[0])))
			reqs := make([][2][]int32, 8)
			for i := range reqs {
				for side, m := range size {
					for j := 0; j < m; j++ {
						reqs[i][side] = append(reqs[i][side], int32(rng.Intn(n)))
					}
				}
			}
			for _, naive := range []bool{true, false} {
				mode := "pruned"
				if naive {
					mode = "naive"
				}
				b.Run(fmt.Sprintf("%s/%dx%d/%s", inst.Scheme(), size[0], size[1], mode), func(b *testing.B) {
					var issued, pairs int64
					for i := 0; i < b.N; i++ {
						r := reqs[i%len(reqs)]
						res, err := Eval(inst, r[0], r[1], Options{Naive: naive})
						if err != nil {
							b.Fatal(err)
						}
						issued, pairs = issued+res.Evaluated, pairs+res.Pairs
					}
					b.ReportMetric(float64(issued)/float64(pairs), "issued/pair")
				})
			}
		}
	}
}

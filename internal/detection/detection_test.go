package detection

import (
	"math"
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// sourceMask marks the given nodes as sources.
func sourceMask(n int, sources ...int) []bool {
	m := make([]bool, n)
	for _, s := range sources {
		m[s] = true
	}
	return m
}

// everyKth marks nodes 0, k, 2k, ... as sources.
func everyKth(n, k int) []bool {
	m := make([]bool, n)
	for v := 0; v < n; v += k {
		m[v] = true
	}
	return m
}

// assertMatchesBruteForce runs detection and compares the (Dist, Src)
// content of every list against the centralized answer.
func assertMatchesBruteForce(t *testing.T, g *graph.Graph, p Params) *Result {
	t.Helper()
	res, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForce(g, p)
	ls := lists(res)
	for v := range want {
		if len(ls[v]) != len(want[v]) {
			t.Fatalf("node %d: got %d entries, want %d\n got=%v\nwant=%v",
				v, len(ls[v]), len(want[v]), ls[v], want[v])
		}
		for i := range want[v] {
			got := ls[v][i]
			if got.Dist != want[v][i].Dist || got.Src != want[v][i].Src {
				t.Fatalf("node %d entry %d: got (%d,%d), want (%d,%d)",
					v, i, got.Dist, got.Src, want[v][i].Dist, want[v][i].Src)
			}
			if got.Flag != want[v][i].Flag {
				t.Fatalf("node %d entry %d: flag %d, want %d", v, i, got.Flag, want[v][i].Flag)
			}
		}
	}
	return res
}

// reweigh returns g with each edge's weight w replaced by fn(id, w): the
// same nodes, neighbours and ports. Its edge ids may differ from g's, and
// a run reads none.
func reweigh(g *graph.Graph, fn func(id int32, w graph.Weight) graph.Weight) *graph.Graph {
	b := graph.NewBuilder(g.N())
	g.Edges(func(u, v int, w graph.Weight, id int32) { b.AddEdge(u, v, fn(id, w)) })
	return b.MustBuild()
}

// hopDist returns hop distances from src (-1 when unreachable): Dijkstra
// on a copy of g with every weight 1.
func hopDist(g *graph.Graph, src int) []int32 {
	return graph.Dijkstra(reweigh(g, func(int32, graph.Weight) graph.Weight { return 1 }), src).Hops
}

func TestUnweightedSingleSourceIsBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(50, 0.07, 5, rng)
	p := Params{
		IsSource:    sourceMask(50, 0),
		H:           50,
		Sigma:       1,
		CapMessages: true,
	}
	res := assertMatchesBruteForce(t, g, p)
	bfs := hopDist(g, 0)
	for v := 0; v < 50; v++ {
		if len(lists(res)[v]) != 1 || lists(res)[v][0].Dist != bfs[v] {
			t.Fatalf("node %d: %v, want BFS dist %d", v, lists(res)[v], bfs[v])
		}
	}
}

func TestUnweightedMatchesBruteForceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		n := 20 + trial*5
		g := graph.RandomConnected(n, 0.08, 5, rng)
		for _, sigma := range []int{1, 2, 4, n} {
			for _, h := range []int{1, 3, 8, n} {
				p := Params{
					IsSource:    everyKth(n, 3),
					H:           h,
					Sigma:       sigma,
					CapMessages: true,
				}
				assertMatchesBruteForce(t, g, p)
			}
		}
	}
}

func TestUnweightedAllSourcesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	g := graph.RandomConnected(n, 0.1, 5, rng)
	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}
	p := Params{IsSource: all, H: n, Sigma: n, CapMessages: true}
	res := assertMatchesBruteForce(t, g, p)
	// With S = V, h = σ = n, every node detects every node: this is the
	// unweighted APSP configuration behind Theorem 4.1.
	for v, l := range lists(res) {
		if len(l) != n {
			t.Fatalf("node %d detected %d of %d nodes", v, len(l), n)
		}
	}
}

func TestFlagsAreCarried(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 30
	g := graph.RandomConnected(n, 0.1, 5, rng)
	flags := make([]uint8, n)
	for v := range flags {
		flags[v] = uint8(v % 4)
	}
	p := Params{IsSource: everyKth(n, 2), Flags: flags, H: n, Sigma: 5, CapMessages: true}
	res := assertMatchesBruteForce(t, g, p)
	for v, l := range lists(res) {
		for _, e := range l {
			if e.Flag != flags[e.Src] {
				t.Fatalf("node %d: source %d flag %d, want %d", v, e.Src, e.Flag, flags[e.Src])
			}
		}
	}
}

func TestSubdividedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		n := 16 + 4*trial
		g := graph.RandomConnected(n, 0.12, 6, rng)
		for _, sigma := range []int{1, 3, n} {
			p := Params{
				IsSource:    everyKth(n, 2),
				H:           25,
				Sigma:       sigma,
				Base:        1,
				CapMessages: true,
			}
			assertMatchesBruteForce(t, g, p)
		}
	}
}

func TestSubdividedLongEdgesExcluded(t *testing.T) {
	// A triangle where the direct edge is longer than H: the two-edge
	// detour is within H, so the answer uses it.
	g := graph.NewBuilder(3).
		AddEdge(0, 1, 3).
		AddEdge(1, 2, 3).
		AddEdge(0, 2, 100).
		MustBuild()
	p := Params{IsSource: sourceMask(3, 0), H: 10, Sigma: 1, Base: 1, CapMessages: true}
	res := assertMatchesBruteForce(t, g, p)
	if len(lists(res)[2]) != 1 || lists(res)[2][0].Dist != 6 {
		t.Fatalf("node 2 list = %v, want dist 6 via the detour", lists(res)[2])
	}
	if lists(res)[2][0].Via != 1 {
		t.Fatalf("node 2 via = %d, want 1", lists(res)[2][0].Via)
	}
}

// entryFor returns list's entry for source s, if present.
func entryFor(list []Entry, s int32) (Entry, bool) {
	for _, e := range list {
		if e.Src == s {
			return e, true
		}
	}
	return Entry{}, false
}

func TestViaPointersFormExactRoutes(t *testing.T) {
	// Following Via pointers toward a detected source must reach it, with
	// virtual distance dropping by exactly the edge length each hop: the
	// invariant behind Corollary 3.5's routing tables.
	rng := rand.New(rand.NewSource(6))
	n := 36
	g := graph.RandomConnected(n, 0.1, 6, rng)
	p := Params{IsSource: everyKth(n, 3), H: 30, Sigma: 4, Base: 1, CapMessages: true}
	res, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ls := lists(res)
	for v := 0; v < n; v++ {
		for _, e := range ls[v] {
			cur := v
			dist := e.Dist
			for step := 0; cur != int(e.Src); step++ {
				if step > n {
					t.Fatalf("route from %d to %d does not terminate", v, e.Src)
				}
				cure, ok := entryFor(ls[cur], e.Src)
				if !ok {
					t.Fatalf("node %d lost source %d on route from %d", cur, e.Src, v)
				}
				if cure.Dist != dist {
					t.Fatalf("node %d dist %d for source %d, expected %d", cur, cure.Dist, e.Src, dist)
				}
				edge, ok := g.EdgeBetween(cur, int(cure.Via))
				if !ok {
					t.Fatalf("via %d is not a neighbor of %d", cure.Via, cur)
				}
				dist -= p.Length(edge.W)
				cur = int(cure.Via)
			}
			if dist != 0 {
				t.Fatalf("route from %d to %d ends with residual distance %d", v, e.Src, dist)
			}
		}
	}
}

func TestMessageCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 40
	g := graph.RandomConnected(n, 0.1, 5, rng)
	for _, sigma := range []int{1, 2, 5, 9} {
		p := Params{IsSource: everyKth(n, 2), H: n, Sigma: sigma, CapMessages: true}
		res := assertMatchesBruteForce(t, g, p)
		capLimit := int64(sigma) * int64(sigma+1) / 2
		for v, c := range res.SelfEmits {
			if int64(c) > capLimit {
				t.Fatalf("node %d announced %d pairs, Lemma 3.4 cap is %d (σ=%d)", v, c, capLimit, sigma)
			}
		}
	}
}

func TestFIFOAblationStillCorrectButChattier(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 30
	g := graph.RandomConnected(n, 0.12, 5, rng)
	p := Params{IsSource: everyKth(n, 2), H: n, Sigma: 3}
	lex := p
	lex.Scheduling = LexSmallest
	lex.CapMessages = true
	fifo := p
	fifo.Scheduling = FIFO
	// FIFO needs more rounds in the worst case; give it room.
	fifo.ExtraRounds = 5 * n
	lexRes := assertMatchesBruteForce(t, g, lex)
	fifoRes := assertMatchesBruteForce(t, g, fifo)
	var lexTotal, fifoTotal int64
	for v := range lexRes.SelfEmits {
		lexTotal += int64(lexRes.SelfEmits[v])
		fifoTotal += int64(fifoRes.SelfEmits[v])
	}
	if fifoTotal < lexTotal {
		t.Fatalf("expected FIFO (%d) to announce at least as much as lex (%d)", fifoTotal, lexTotal)
	}
}

func TestSigmaZeroAndEmptySources(t *testing.T) {
	g := graph.NewBuilder(4).AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(2, 3, 1).MustBuild()
	res, err := Run(g, Params{IsSource: sourceMask(4, 0), H: 4, Sigma: 0, CapMessages: true}, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range lists(res) {
		if len(l) != 0 {
			t.Fatalf("σ=0 should produce empty lists, node %d has %v", v, l)
		}
	}
	res, err = Run(g, Params{IsSource: make([]bool, 4), H: 4, Sigma: 2, CapMessages: true}, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages != 0 {
		t.Fatalf("no sources should mean no messages, got %d", res.Metrics.Messages)
	}
}

func TestHZeroDetectsOnlySelf(t *testing.T) {
	g := graph.NewBuilder(3).AddEdge(0, 1, 1).AddEdge(1, 2, 1).MustBuild()
	res, err := Run(g, Params{IsSource: sourceMask(3, 0, 1), H: 0, Sigma: 3, CapMessages: true}, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lists(res)[0]) != 1 || lists(res)[0][0].Src != 0 || lists(res)[0][0].Dist != 0 {
		t.Fatalf("node 0 with h=0: %v", lists(res)[0])
	}
	if len(lists(res)[2]) != 0 {
		t.Fatalf("node 2 with h=0: %v", lists(res)[2])
	}
}

func TestParamValidation(t *testing.T) {
	g := graph.NewBuilder(2).AddEdge(0, 1, 1).MustBuild()
	cases := []Params{
		{IsSource: []bool{true}, H: 1, Sigma: 1},                                                  // wrong mask size
		{IsSource: []bool{true, false}, Flags: []uint8{1}, H: 1, Sigma: 1},                        // wrong flags size
		{IsSource: []bool{true, false}, H: -1, Sigma: 1},                                          // negative H
		{IsSource: []bool{true, false}, H: 1, Sigma: -1},                                          // negative sigma
		{IsSource: []bool{true, false}, H: 1, Sigma: 1, Base: -1},                                 // negative base
		{IsSource: []bool{true, false}, H: 1, Sigma: 1, Base: math.NaN()},                         // NaN base
		{IsSource: []bool{true, false}, H: 1, Sigma: 1, Base: math.Inf(1)},                        // infinite base
		{IsSource: []bool{false, true}, H: 1, Sigma: 1, Scheduling: Priority, Delays: []int32{0}}, // short delays
	}
	for i, p := range cases {
		if _, err := Run(g, p, congest.Config{}); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

// TestLargeSigmaCapDoesNotWrap is the regression for the message cap
// computed in 32 bits: σ(σ+1)/2 wrapped negative from σ = 46 341 on, no
// unit ever announced, and Run returned every node its own entry alone
// with no error.
func TestLargeSigmaCapDoesNotWrap(t *testing.T) {
	g := graph.Path(3, 1, rand.New(rand.NewSource(1)))
	for _, sigma := range []int{46341, 50000, math.MaxInt32, math.MaxInt} {
		p := Params{IsSource: []bool{true, true, true}, H: 5, Sigma: sigma, CapMessages: true}
		res := assertMatchesBruteForce(t, g, p)
		for v, l := range lists(res) {
			if len(l) != 3 {
				t.Fatalf("σ=%d: node %d detected %d sources, want 3", sigma, v, len(l))
			}
		}
	}
}

// TestHopBoundBeyondKeyIsRejected: a packed key gives dist 31 bits, and an
// announced pair travels at dist+1. H used to be truncated to int32
// silently (H = 2³² + 1 ran as h = 1).
func TestHopBoundBeyondKeyIsRejected(t *testing.T) {
	g := graph.Path(3, 1, rand.New(rand.NewSource(1)))
	p := Params{IsSource: []bool{true, false, false}, Sigma: 1}
	for _, h := range []int{math.MaxInt32, math.MaxInt32 + 2, 1<<32 + 1} {
		p.H = h
		if _, err := Run(g, p, congest.Config{}); err == nil {
			t.Fatalf("H=%d: expected an error", h)
		}
	}
	p.H = math.MaxInt32 - 1
	res := assertMatchesBruteForce(t, g, p)
	if e, ok := entryFor(lists(res)[2], 0); !ok || e.Dist != 2 {
		t.Fatalf("H=%d: node 2 holds %+v, %v", p.H, e, ok)
	}
}

func TestBudgetFormula(t *testing.T) {
	p := Params{IsSource: []bool{true, true, false}, H: 10, Sigma: 5}
	if got := budget(p); got != 10+2+1 {
		t.Fatalf("Budget = %d, want 13 (h + min(σ,|S|) + 1)", got)
	}
	p.ExtraRounds = 4
	if got := budget(p); got != 17 {
		t.Fatalf("Budget with slack = %d, want 17", got)
	}
}

func TestDetectionOnFigure1Gadget(t *testing.T) {
	// The paper's lower-bound gadget is an adversarial topology for
	// detection (one bottleneck edge carries everything): verify the
	// subdivided algorithm still matches the centralized answer there.
	// Note the distinction this exposes: under *virtual* (weighted) hop
	// bounds, every u_i detects weight-closest column 1 — the real-graph
	// hop bound h+1 that makes each u_i need its own column applies to
	// exact hop-bounded detection (see the baseline package), which is
	// precisely why approximate PDE escapes the Ω(hσ) bound.
	f := graph.NewFigure1(3, 2)
	isSource := make([]bool, f.G.N())
	for _, s := range f.Sources {
		isSource[s] = true
	}
	p := Params{IsSource: isSource, H: 40, Sigma: 2, Base: 1, CapMessages: true}
	res := assertMatchesBruteForce(t, f.G, p)
	// Weight-closest sources for every u node are in column 1.
	col1 := f.Column(1)
	for i := 1; i <= 3; i++ {
		u := f.UNode[i-1]
		if len(lists(res)[u]) != 2 {
			t.Fatalf("u_%d detected %d sources", i, len(lists(res)[u]))
		}
		for j, e := range lists(res)[u] {
			if int(e.Src) != col1[j] {
				t.Fatalf("u_%d entry %d = %+v, want column-1 source %d", i, j, e, col1[j])
			}
		}
	}
}

// lists reads every node's list of res.
func lists(res *Result) [][]Entry {
	out := make([][]Entry, len(res.SelfEmits))
	for v := range out {
		out[v] = res.List(v, nil)
	}
	return out
}

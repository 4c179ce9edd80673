// Package rtc implements Theorem 4.5: routing table construction with node
// relabeling, stretch 6k−1+o(1), O(log n)-bit labels, in
// Õ(n^{1/2+1/(4k)} + D) rounds.
//
// The construction follows §4.2:
//
//  1. sample a skeleton S with probability p = n^{-1/2-1/(4k)} per node;
//  2. solve (1+ε)-approximate (V, h, σ)-estimation with h = σ = c·ln n/p
//     (short-range tables, with skeleton membership flagged in messages);
//  3. solve (1+ε)-approximate (S, h, |S|)-estimation (skeleton tables);
//  4. build the skeleton graph on S from the detected pairs and construct
//     a Baswana–Sen (2k−1)-spanner of it, made globally known;
//  5. label every node for tree routing on the tree T_{s'_v} of PDE routes
//     toward its nearest skeleton node s'_v.
//
// Routing to λ(w) is stateless: use the short-range table if w is in it;
// descend T_{s'_w} once inside it; otherwise take one step toward the
// skeleton node minimizing Φ(x) = wd'_S(x,t) + spannerDist(t, s'_w), a
// potential that strictly decreases every hop.
//
// Two deliberate substitutions versus the paper's letter, both recorded in
// docs/architecture.md ("Deviations from the paper's letter"): s'_v is the
// nearest skeleton node under the skeleton-instance estimates (the
// (V,h,σ) instance's flagged entries give the same node w.h.p., and the
// skeleton instance guarantees v can route to it), and skeleton-graph
// weights are ⌈estimate⌉ so the overlay stays integral — both preserve
// every asymptotic bound.
package rtc

import (
	"fmt"
	"math"
	"math/rand"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/fingerprint"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/spanner"
	"pde/internal/treelabel"
)

// Params configures a Theorem 4.5 construction.
type Params struct {
	// K is the stretch parameter: routes have stretch at most 6k−1+o(1).
	K int
	// Epsilon is the PDE slack (the paper uses 1/log n; any ε ∈ o(1/1)
	// only shifts the o(1) term).
	Epsilon float64
	// C scales h = σ = C·ln(n)/p. Larger C sharpens the w.h.p.
	// guarantees at small n.
	C float64
	// SampleProb overrides the skeleton sampling probability
	// p = n^{-1/2-1/(4k)} when positive (experiments use it to force the
	// long-range machinery at simulable scale).
	SampleProb float64
	// HOverride / SigmaOverride replace h and σ when positive.
	HOverride, SigmaOverride int
	// Seed drives skeleton sampling and the spanner.
	Seed int64
}

// Label is the O(log n)-bit relabeling of one node: its id, its nearest
// skeleton node with the distance estimate, and its tree-routing label in
// T_{s'_v}.
type Label struct {
	Node       int32
	Skel       int32
	DistToSkel float64
	Tree       treelabel.Label
}

// Bits returns the label's encoded size: 2 node ids, one distance, one
// tree label — O(log n). The id and distance widths come from the shared
// graph helpers (the distance loop is bounded, so huge maxDist cannot spin
// the shift past 63 bits).
func (l Label) Bits(n int, maxDist float64) int {
	return 2*graph.IDBits(n) + graph.DistBits(maxDist) + l.Tree.Bits(n)
}

// RoundBreakdown itemizes the construction cost in CONGEST rounds.
type RoundBreakdown struct {
	ShortRangePDE int // (V, h, σ)-estimation budget
	SkeletonPDE   int // (S, h, |S|)-estimation budget
	Spanner       int // modeled Baswana–Sen simulation + broadcast
	TreeLabeling  int // multiplexed two-sweep labelings
	Total         int
}

// Scheme is a built routing scheme: the per-node tables plus the global
// knowledge (spanner) every node shares.
type Scheme struct {
	G        *graph.Graph
	K        int
	Eps      float64
	Skeleton []int32
	InSkel   []bool
	// A is the short-range (V, h, σ) PDE result; B the skeleton
	// (S, h, |S|) result.
	A, B *core.Result
	// H is the skeleton graph on re-indexed nodes; SkelIndex maps node
	// id to H index and Skeleton maps back.
	H         *graph.Graph
	SkelIndex map[int32]int
	// Span is the (2k−1)-spanner of H; SpanSP holds, per H index, the
	// shortest-path tree of the spanner subgraph (globally computable
	// since the spanner is broadcast).
	Span   *spanner.Result
	SpanSP []*graph.SSSP
	// Trees holds T_s per skeleton node s some node labeled itself with
	// (the forest's trees; forest keeps the Lemma 4.4 statistics).
	Trees  map[int32]*treelabel.Labeling
	forest *treelabel.Forest
	// Labels[v] is λ(v); maxLabelDist the largest DistToSkel among them,
	// which fixes the labels' distance-field width.
	Labels       []Label
	maxLabelDist float64
	Rounds       RoundBreakdown
	// oraA / oraB are the flat indexed views of A and B serving every
	// hop decision and point query (NextHop, Dist, phi).
	oraA, oraB *oracle.Oracle
	// spanTail[j][i] is the globally known spanner distance from skeleton
	// H-index i to target j as a float (+Inf when unreachable): the tail
	// row of the long-range potential.
	spanTail [][]float64
	// phiVal/phiArg[j][x] precompute the long-range potential Φ and its
	// argmin skeleton node for every (target H-index j, node x) pair when
	// the table fits (see buildPhiTables); nil otherwise, in which case
	// phi falls back to the phiScan reference.
	phiVal [][]float64
	phiArg [][]int32
}

// Build constructs the scheme. prev, nil for a cold build, is a scheme
// built under p: each PDE build gets prev's result of that PDE as its
// predecessor (core.Build refuses it with core.ErrOtherStructure on a graph
// of another structure), and what is derived from them is built again.
// The stats sum the two PDE builds'.
func Build(g *graph.Graph, p Params, cfg congest.Config, prev *Scheme) (*Scheme, core.PatchStats, error) {
	var ps core.PatchStats
	n := g.N()
	if n == 0 {
		return nil, ps, fmt.Errorf("rtc: empty graph")
	}
	if p.K < 1 {
		return nil, ps, fmt.Errorf("rtc: k=%d must be >= 1", p.K)
	}
	if !(p.Epsilon > 0) {
		return nil, ps, fmt.Errorf("rtc: epsilon must be positive")
	}
	if p.C <= 0 {
		p.C = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// 1. Skeleton sampling.
	prob := p.SampleProb
	if prob <= 0 {
		prob = math.Pow(float64(n), -0.5-1.0/(4.0*float64(p.K)))
	}
	sch := &Scheme{G: g, K: p.K, Eps: p.Epsilon, InSkel: make([]bool, n)}
	for v := 0; v < n; v++ {
		if rng.Float64() < prob {
			sch.InSkel[v] = true
			sch.Skeleton = append(sch.Skeleton, int32(v))
		}
	}
	if len(sch.Skeleton) == 0 {
		// The paper assumes S != ∅ (w.h.p.); at tiny n force one node.
		sch.InSkel[0] = true
		sch.Skeleton = []int32{0}
	}
	sch.SkelIndex = make(map[int32]int, len(sch.Skeleton))
	for i, s := range sch.Skeleton {
		sch.SkelIndex[s] = i
	}

	// 2. Short-range PDE: (V, h, σ) with skeleton flags.
	h := p.HOverride
	if h <= 0 {
		h = int(math.Ceil(p.C * math.Log(float64(n)+1) / prob))
	}
	if h > n {
		h = n
	}
	sigma := p.SigmaOverride
	if sigma <= 0 {
		sigma = h
	}
	if sigma > n {
		sigma = n
	}
	all := make([]bool, n)
	flags := make([]uint8, n)
	for v := 0; v < n; v++ {
		all[v] = true
		if sch.InSkel[v] {
			flags[v] = 1
		}
	}
	if prev == nil {
		prev = &Scheme{}
	}
	var err error
	var st core.PatchStats
	sch.A, st, err = core.Build(g, core.Params{
		IsSource: all, Flags: flags, H: h, Sigma: sigma,
		Epsilon: p.Epsilon,
	}, cfg.Sub(), prev.A)
	ps.Add(st)
	if err != nil {
		return nil, ps, fmt.Errorf("rtc: short-range PDE: %w", err)
	}

	// 3. Skeleton PDE: (S, h, |S|).
	isSkel := make([]bool, n)
	copy(isSkel, sch.InSkel)
	sch.B, st, err = core.Build(g, core.Params{
		IsSource: isSkel, H: h, Sigma: len(sch.Skeleton),
		Epsilon: p.Epsilon, SkipSetup: true,
	}, cfg.Sub(), prev.B)
	ps.Add(st)
	if err != nil {
		return nil, ps, fmt.Errorf("rtc: skeleton PDE: %w", err)
	}

	// 4. Skeleton graph and spanner.
	if sch.H, err = sch.B.SkeletonOverlay(sch.Skeleton, sch.SkelIndex); err != nil {
		return nil, ps, fmt.Errorf("rtc: skeleton graph: %w", err)
	}
	sch.Span, err = spanner.BaswanaSen(sch.H, p.K, rng)
	if err != nil {
		return nil, ps, fmt.Errorf("rtc: spanner: %w", err)
	}
	d := graph.HopDiameter(g)
	if d < 0 {
		return nil, ps, fmt.Errorf("rtc: graph is disconnected")
	}
	sch.Rounds.Spanner = sch.Span.ModelSimRounds(len(sch.Skeleton), d)
	sub, err := sch.Span.Subgraph(sch.H.N())
	if err != nil {
		return nil, ps, fmt.Errorf("rtc: spanner subgraph: %w", err)
	}
	sch.SpanSP = make([]*graph.SSSP, sch.H.N())
	sch.spanTail = make([][]float64, sch.H.N())
	for j := 0; j < sch.H.N(); j++ {
		sch.SpanSP[j] = graph.Dijkstra(sub, j)
		tail := make([]float64, sch.H.N())
		for i, d := range sch.SpanSP[j].Dist {
			tail[i] = math.Inf(1)
			if d != graph.Infinity {
				tail[i] = float64(d)
			}
		}
		sch.spanTail[j] = tail
	}

	// 5. Trees and labels. Hop decisions and point queries are served from
	// the compiled oracles; the legacy scan paths remain the correctness
	// reference in tests.
	sch.oraA = oracle.Compile(sch.A)
	sch.oraB = oracle.Compile(sch.B)
	sch.buildPhiTables()
	if err := sch.buildTreesAndLabels(); err != nil {
		return nil, ps, err
	}

	sch.Rounds.ShortRangePDE = sch.A.BudgetRounds
	sch.Rounds.SkeletonPDE = sch.B.BudgetRounds
	sch.Rounds.Total = sch.Rounds.ShortRangePDE + sch.Rounds.SkeletonPDE +
		sch.Rounds.Spanner + sch.Rounds.TreeLabeling
	return sch, ps, nil
}

// buildTreesAndLabels assembles λ(v): s'_v is the skeleton node minimizing
// (wd'_S(v,s), s) in v's skeleton tables (B's lists are sorted so), and
// the tree component is v's label in Lemma 4.4's T_{s'_v}. The
// per-instance invariant guarantees each walked node can forward.
func (sch *Scheme) buildTreesAndLabels() error {
	n := sch.G.N()
	sch.Labels = make([]Label, n)
	pivot := make([]int32, n)
	for v := 0; v < n; v++ {
		if len(sch.B.Lists[v]) == 0 {
			return fmt.Errorf("rtc: node %d detected no skeleton node; increase C", v)
		}
		e := sch.B.Lists[v][0]
		sch.Labels[v] = Label{Node: int32(v), Skel: e.Src, DistToSkel: e.Dist}
		sch.maxLabelDist = max(sch.maxLabelDist, e.Dist)
		pivot[v] = e.Src
	}
	var err error
	if sch.forest, err = treelabel.BuildForest(pivot, sch.oraB.NextHop); err != nil {
		return fmt.Errorf("rtc: %w", err)
	}
	sch.Trees = sch.forest.Trees
	sch.Rounds.TreeLabeling = sch.forest.Rounds
	for v := 0; v < n; v++ {
		sch.Labels[v].Tree = sch.forest.Label(v, pivot[v])
	}
	return nil
}

// Fingerprint digests everything the scheme serves queries from: both PDE
// results, the skeleton, the spanner edge set and every label. Two builds
// from the same (graph, Params) must produce equal fingerprints — the
// regression tests and the serving layer treat this as the scheme's table
// generation id, exactly like core.Result.Fingerprint for oracle shards.
func (sch *Scheme) Fingerprint() uint64 {
	f := fingerprint.New()
	f.U64(sch.A.Fingerprint())
	f.U64(sch.B.Fingerprint())
	f.I64(int64(sch.K))
	f.F64(sch.Eps)
	for _, s := range sch.Skeleton {
		f.I64(int64(s))
	}
	for _, e := range sch.Span.Edges {
		f.I64(int64(e.U))
		f.I64(int64(e.V))
		f.I64(int64(e.W))
	}
	for v := range sch.Labels {
		l := &sch.Labels[v]
		f.I64(int64(l.Node))
		f.I64(int64(l.Skel))
		f.F64(l.DistToSkel)
		f.I64(int64(l.Tree.Pre))
		f.I64(int64(l.Tree.Size))
	}
	return f.Sum()
}

// TreeStats reports the Lemma 4.4 quantities: per-tree depth (ascending
// skeleton id) and the number of trees each node participates in.
func (sch *Scheme) TreeStats() (depths []int, treesPerNode []int) {
	return sch.forest.Depths, sch.forest.PerNode
}

// LabelBits returns the encoded size of λ(v) in bits.
func (sch *Scheme) LabelBits(v int) int {
	return sch.Labels[v].Bits(sch.G.N(), sch.maxLabelDist)
}

// TableWords estimates node v's routing-table size in words: its
// per-instance PDE entries, plus tree-routing state, plus its share of the
// globally known spanner (counted once per node, as every node stores it).
func (sch *Scheme) TableWords(v int) int {
	words := sch.A.TableWords(v) + sch.B.TableWords(v) + 3*len(sch.Span.Edges)
	for _, lab := range sch.Trees {
		if _, ok := lab.Labels[v]; ok {
			words += lab.TableWords(v)
		}
	}
	return words
}

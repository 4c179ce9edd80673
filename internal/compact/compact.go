// Package compact implements §4.3: distributed construction of an
// (approximate) Thorup–Zwick routing hierarchy with tables of size
// Õ(n^{1/k}), labels of O(k log n) bits, and stretch 4k−3+o(1).
//
// Levels S_0 = V ⊇ S_1 ⊇ … ⊇ S_{k-1} are sampled geometrically
// (P[level ≥ l] = n^{-l/k}). For each level l the scheme solves
// (1+ε)-approximate (S_l, h_{l+1}, σ)-estimation with
// h_{l+1} = c·n^{(l+1)/k}·ln n and σ = c·n^{1/k}·ln n (Lemma 4.7), giving
// every node its bunch S'_l(v), its pivot s'_{l+1}(v), and per-instance
// routing tables; trees T^l_s of the routing paths toward each pivot are
// interval-labeled for the downward legs.
//
// Levels l ≥ l0 can be truncated (Lemma 4.12): a skeleton instance
// (S_{l0}, h_{l0}, |S_{l0}|) yields the virtual graph G̃(l0), higher-level
// estimation runs on G̃(l0) — either genuinely, with every simulated
// round's messages pipelined over a BFS tree (StrategySimulate,
// Theorem 4.13), or by broadcasting G̃(l0) once and computing locally
// (StrategyBroadcast, Corollary 4.14). Distances combine per Lemma 4.10:
// wd'(v,s) = min_t wd'_{S_{l0}}(v,t) + wd'_S(t,s).
package compact

import (
	"fmt"
	"math"
	"math/rand"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/fingerprint"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/treelabel"
)

// Strategy selects how truncated levels are executed.
type Strategy int

const (
	// StrategyNone builds every level directly on G (Theorem 4.8 flavor).
	StrategyNone Strategy = iota
	// StrategySimulate runs truncated levels on G̃(l0), charging
	// Σ_i (M_i + D) rounds for the BFS-tree pipelining (Theorem 4.13).
	StrategySimulate
	// StrategyBroadcast broadcasts G̃(l0)'s edges once and computes the
	// truncated levels locally (Corollary 4.14).
	StrategyBroadcast
)

// Params configures the hierarchy.
type Params struct {
	// K is the number of levels; stretch is 4k−3+o(1).
	K int
	// Epsilon is the PDE slack (the paper uses Θ(1/log² n); any small
	// constant shifts only the o(1)).
	Epsilon float64
	// C scales every h and σ.
	C float64
	// L0 truncates levels >= L0 onto the skeleton graph. 0 disables
	// truncation (StrategyNone).
	L0 int
	// Strategy selects the truncated execution mode; ignored when L0=0.
	Strategy Strategy
	// SampleBase overrides the per-level keep probability n^{-1/k}
	// (experiments at small n use it to get non-degenerate hierarchies).
	SampleBase float64
	// Seed drives the level sampling.
	Seed int64
}

// LevelLabel is one level's component of a node's label.
type LevelLabel struct {
	// Skel is s'_l(w); Dist its distance estimate from w.
	Skel int32
	Dist float64
	// Tree is w's interval label in T^l_{s'_l(w)}.
	Tree treelabel.Label
}

// Label is λ(w): the node id plus one component per level 1..k-1,
// O(k log n) bits in total.
type Label struct {
	Node int32
	Per  []LevelLabel
}

// Bits returns the encoded label size: the node id plus, per level, a
// pivot id, a distance and that level's actual tree label. The tree-label
// cost is Tree.Bits(n) (as rtc accounts it), not a hardcoded 2·idBits, and
// the id/distance widths come from the shared graph helpers whose distance
// loop is bounded for huge maxDist.
func (l Label) Bits(n int, maxDist float64) int {
	idBits := graph.IDBits(n)
	distBits := graph.DistBits(maxDist)
	bits := idBits
	for _, per := range l.Per {
		bits += idBits + distBits + per.Tree.Bits(n)
	}
	return bits
}

// RoundBreakdown itemizes construction cost.
type RoundBreakdown struct {
	DirectLevels int // Σ budgets of levels built on G
	SkeletonPDE  int // the (S_l0, h_l0, |S_l0|) instance
	TruncatedSim int // Σ (M_i + D) for simulated levels, or the one-time broadcast
	TreeLabeling int
	Total        int
}

// Scheme is the built hierarchy.
type Scheme struct {
	G   *graph.Graph
	K   int
	Eps float64
	// Levels[l] lists S_l (sorted); InLevel[l][v] tests membership.
	Levels  [][]int32
	InLevel [][]bool
	// R[l] is the level-l PDE on G for direct levels (nil when truncated).
	R []*core.Result
	// Pivot[l][v] / PivotDist[l][v]: s'_l(v) and its estimate, l=1..k-1;
	// -1 when S_l is exhausted above v's reach.
	Pivot     [][]int32
	PivotDist [][]float64
	// BunchSize[l][v] = |S'_l(v)| (table accounting).
	BunchSize [][]int

	// Truncation state.
	L0       int
	Strategy Strategy
	SkelR    *core.Result
	Gl0      *graph.Graph
	Skel     []int32
	SkelIdx  map[int32]int
	// simDist[l][si][sj]: level-l distance estimate on G̃(l0) from
	// skeleton index si to source sj (graph node id key). Globally known.
	simDist []map[int32][]float64
	// simVia[l][si][sj]: next skeleton H-index on the estimated path.
	simVia []map[int32][]int32

	Trees []map[int32]*treelabel.Labeling // per level 1..k-1 (index l)
	// Labels[v] is λ(v); maxLabelDist the largest pivot distance among
	// them, which fixes the labels' distance-field width.
	Labels       []Label
	maxLabelDist float64
	Rounds       RoundBreakdown

	// oracles[l] / skelOracle are the flat indexed views serving
	// levelEstimate and levelNextHop; the per-instance scans remain the
	// correctness reference in tests.
	oracles    []*oracle.Oracle
	skelOracle *oracle.Oracle
}

// Build constructs the hierarchy. prev, nil for a cold build, is a
// hierarchy built under p: each PDE build on g gets prev's result of that
// PDE as its predecessor (core.Build refuses it with core.ErrOtherStructure
// on a graph of another structure), and what is derived from them, the
// levels simulated on G̃(l0) among it, is built again. The stats sum every
// PDE build's.
func Build(g *graph.Graph, p Params, cfg congest.Config, prev *Scheme) (*Scheme, core.PatchStats, error) {
	var ps core.PatchStats
	n := g.N()
	if n == 0 {
		return nil, ps, fmt.Errorf("compact: empty graph")
	}
	if p.K < 2 {
		return nil, ps, fmt.Errorf("compact: k=%d must be >= 2", p.K)
	}
	if !(p.Epsilon > 0) {
		return nil, ps, fmt.Errorf("compact: epsilon must be positive")
	}
	if p.C <= 0 {
		p.C = 1
	}
	if p.L0 < 0 || p.L0 > p.K-1 {
		return nil, ps, fmt.Errorf("compact: l0=%d out of range [0,%d]", p.L0, p.K-1)
	}
	if p.L0 > 0 && p.Strategy == StrategyNone {
		p.Strategy = StrategySimulate
	}
	if p.L0 == 0 {
		p.Strategy = StrategyNone
	}
	sch := &Scheme{G: g, K: p.K, Eps: p.Epsilon, L0: p.L0, Strategy: p.Strategy}
	if prev == nil {
		prev = &Scheme{R: make([]*core.Result, p.K)}
	}

	// Geometric level sampling.
	rng := rand.New(rand.NewSource(p.Seed))
	q := p.SampleBase
	if q <= 0 {
		q = math.Pow(float64(n), -1.0/float64(p.K))
	}
	level := make([]int, n)
	for v := 0; v < n; v++ {
		for level[v] < p.K-1 && rng.Float64() < q {
			level[v]++
		}
	}
	sch.Levels = make([][]int32, p.K)
	sch.InLevel = make([][]bool, p.K)
	for l := 0; l < p.K; l++ {
		sch.InLevel[l] = make([]bool, n)
	}
	for v := 0; v < n; v++ {
		for l := 0; l <= level[v]; l++ {
			sch.InLevel[l][v] = true
			sch.Levels[l] = append(sch.Levels[l], int32(v))
		}
	}
	if len(sch.Levels[p.K-1]) == 0 {
		// Force one top-level node (the paper's constructions assume
		// non-empty top level w.h.p.).
		top := 0
		for l := 0; l < p.K; l++ {
			if !sch.InLevel[l][top] {
				sch.InLevel[l][top] = true
				sch.Levels[l] = append([]int32{int32(top)}, sch.Levels[l]...)
			}
		}
	}

	lnN := math.Log(float64(n) + 1)
	hFor := func(l int) int {
		h := int(math.Ceil(p.C * math.Pow(float64(n), float64(l)/float64(p.K)) * lnN))
		if h > n {
			h = n
		}
		if h < 1 {
			h = 1
		}
		return h
	}
	sigma := int(math.Ceil(p.C * math.Pow(float64(n), 1.0/float64(p.K)) * lnN))
	if sigma > n {
		sigma = n
	}

	lastDirect := p.K - 1
	if p.L0 > 0 {
		lastDirect = p.L0 - 1
	}

	// Direct levels 0..lastDirect.
	sch.R = make([]*core.Result, p.K)
	sch.oracles = make([]*oracle.Oracle, p.K)
	for l := 0; l <= lastDirect; l++ {
		sig := sigma
		if l == p.K-1 && len(sch.Levels[l]) > sig {
			sig = len(sch.Levels[l]) // top level: detect all of S_{k-1}
		}
		flags := make([]uint8, n)
		if l+1 < p.K {
			for _, s := range sch.Levels[l+1] {
				flags[s] = 1
			}
		}
		r, st, err := core.Build(g, core.Params{
			IsSource: sch.InLevel[l], Flags: flags,
			H: hFor(l + 1), Sigma: sig,
			Epsilon: p.Epsilon, SkipSetup: l > 0,
		}, cfg.Sub(), prev.R[l])
		ps.Add(st)
		if err != nil {
			return nil, ps, fmt.Errorf("compact: level %d PDE: %w", l, err)
		}
		sch.R[l] = r
		sch.oracles[l] = oracle.Compile(r)
		sch.Rounds.DirectLevels += r.BudgetRounds
	}

	// Truncated levels.
	if p.L0 > 0 {
		if err := sch.buildTruncated(p, hFor, sigma, lnN, cfg, prev, &ps); err != nil {
			return nil, ps, err
		}
	}

	if err := sch.computePivots(); err != nil {
		return nil, ps, err
	}
	if err := sch.buildTreesAndLabels(); err != nil {
		return nil, ps, err
	}
	sch.Rounds.Total = sch.Rounds.DirectLevels + sch.Rounds.SkeletonPDE +
		sch.Rounds.TruncatedSim + sch.Rounds.TreeLabeling
	return sch, ps, nil
}

// Fingerprint digests everything the hierarchy serves queries from: every
// level's PDE result, the skeleton instance, the level sets, the pivots
// and every label (including the simulated-level distance tables via the
// pivot distances derived from them). Two builds from the same
// (graph, Params) must produce equal fingerprints; the serving layer uses
// this as the scheme's table generation id.
func (sch *Scheme) Fingerprint() uint64 {
	f := fingerprint.New()
	f.I64(int64(sch.K))
	f.F64(sch.Eps)
	f.I64(int64(sch.L0))
	f.I64(int64(sch.Strategy))
	for l := 0; l < sch.K; l++ {
		if sch.R[l] != nil {
			f.U64(sch.R[l].Fingerprint())
		}
		for _, s := range sch.Levels[l] {
			f.I64(int64(s))
		}
	}
	if sch.SkelR != nil {
		f.U64(sch.SkelR.Fingerprint())
	}
	for l := 1; l < sch.K; l++ {
		for v := range sch.Pivot[l] {
			f.I64(int64(sch.Pivot[l][v]))
			f.F64(sch.PivotDist[l][v])
			f.I64(int64(sch.BunchSize[l][v]))
		}
	}
	for v := range sch.Labels {
		l := &sch.Labels[v]
		f.I64(int64(l.Node))
		for i := range l.Per {
			f.I64(int64(l.Per[i].Skel))
			f.F64(l.Per[i].Dist)
			f.I64(int64(l.Per[i].Tree.Pre))
			f.I64(int64(l.Per[i].Tree.Size))
		}
	}
	return f.Sum()
}

// overlayCfg derives the engine config for PDE instances simulated on
// the skeleton overlay graph: the build-pool width is inherited from the
// caller, but the bandwidth limit is lifted because overlay messages ride
// the BFS tree and are accounted separately (Lemma 4.12).
func overlayCfg(cfg congest.Config) congest.Config {
	sub := cfg.Sub()
	sub.B = 1 << 20
	return sub
}

// buildTruncated constructs G̃(l0) and the level instances on it, and
// adds their builds' stats to ps.
func (sch *Scheme) buildTruncated(p Params, hFor func(int) int, sigma int, lnN float64, cfg congest.Config, prev *Scheme, ps *core.PatchStats) error {
	l0 := p.L0
	sch.Skel = append([]int32(nil), sch.Levels[l0]...)
	sch.SkelIdx = make(map[int32]int, len(sch.Skel))
	for i, s := range sch.Skel {
		sch.SkelIdx[s] = i
	}
	// Skeleton instance on G: (S_l0, h_l0, |S_l0|).
	sr, st, err := core.Build(sch.G, core.Params{
		IsSource: sch.InLevel[l0], H: hFor(l0), Sigma: len(sch.Skel),
		Epsilon: sch.Eps, SkipSetup: true,
	}, cfg.Sub(), prev.SkelR)
	ps.Add(st)
	if err != nil {
		return fmt.Errorf("compact: skeleton PDE: %w", err)
	}
	sch.SkelR = sr
	sch.skelOracle = oracle.Compile(sch.SkelR)
	sch.Rounds.SkeletonPDE = sch.SkelR.BudgetRounds

	// G̃(l0): mutual detections, max estimate as weight.
	sch.Gl0, err = sch.SkelR.SkeletonOverlay(sch.Skel, sch.SkelIdx)
	if err != nil {
		return fmt.Errorf("compact: skeleton graph: %w", err)
	}

	d := graph.HopDiameter(sch.G)
	if d < 0 {
		return fmt.Errorf("compact: graph is disconnected")
	}

	// Per-level estimation on G̃(l0).
	sch.simDist = make([]map[int32][]float64, sch.K)
	sch.simVia = make([]map[int32][]int32, sch.K)
	epsPrime := math.Sqrt(1+sch.Eps) - 1 // (1+ε')² = 1+ε
	switch sch.Strategy {
	case StrategyBroadcast:
		// One pipelined broadcast of G̃(l0)'s edges; levels computed
		// locally and exactly on G̃.
		sch.Rounds.TruncatedSim = sch.Gl0.M() + d
		for l := l0; l < sch.K; l++ {
			sch.simDist[l] = make(map[int32][]float64)
			sch.simVia[l] = make(map[int32][]int32)
			for _, s := range sch.Levels[l] {
				sp := graph.Dijkstra(sch.Gl0, sch.SkelIdx[s])
				dist := make([]float64, sch.Gl0.N())
				via := make([]int32, sch.Gl0.N())
				for i := range dist {
					if sp.Dist[i] == graph.Infinity {
						dist[i] = math.Inf(1)
						via[i] = -1
						continue
					}
					dist[i] = float64(sp.Dist[i])
					via[i] = sp.Parent[i]
				}
				sch.simDist[l][s] = dist
				sch.simVia[l][s] = via
			}
		}
	default: // StrategySimulate
		for l := l0; l < sch.K; l++ {
			isSrc := make([]bool, sch.Gl0.N())
			for _, s := range sch.Levels[l] {
				isSrc[sch.SkelIdx[s]] = true
			}
			hSim := int(math.Ceil(p.C * lnN * float64(hFor(l+1)) / float64(hFor(l0))))
			if hSim > sch.Gl0.N() {
				hSim = sch.Gl0.N()
			}
			if hSim < 1 {
				hSim = 1
			}
			sig := sigma
			if sig > sch.Gl0.N() {
				sig = sch.Gl0.N()
			}
			if l == sch.K-1 && len(sch.Levels[l]) > sig {
				sig = len(sch.Levels[l])
			}
			r, st, err := core.Build(sch.Gl0, core.Params{
				IsSource: isSrc, H: hSim, Sigma: sig,
				Epsilon: epsPrime, SkipSetup: true,
			}, overlayCfg(cfg), nil) // overlay messages ride the BFS tree
			ps.Add(st)
			if err != nil {
				return fmt.Errorf("compact: simulated level %d: %w", l, err)
			}
			// Lemma 4.12 accounting: each simulated round costs its
			// broadcast count plus D for global synchronization.
			var mi int64
			for _, b := range r.BroadcastsByNode {
				mi += b
			}
			sch.Rounds.TruncatedSim += int(mi) + r.BudgetRounds*(d+1)
			sch.simDist[l] = make(map[int32][]float64)
			sch.simVia[l] = make(map[int32][]int32)
			for _, s := range sch.Levels[l] {
				dist := make([]float64, sch.Gl0.N())
				via := make([]int32, sch.Gl0.N())
				for i := range dist {
					dist[i] = math.Inf(1)
					via[i] = -1
				}
				sch.simDist[l][s] = dist
				sch.simVia[l][s] = via
			}
			for i := 0; i < sch.Gl0.N(); i++ {
				for _, e := range r.Lists[i] {
					s := sch.Skel[e.Src]
					if _, ok := sch.simDist[l][s]; !ok {
						continue
					}
					sch.simDist[l][s][i] = e.Dist
					sch.simVia[l][s][i] = e.Via
				}
			}
		}
	}
	return nil
}

// levelEstimate returns the level-l estimate from x to s ∈ S_l and whether
// it exists, with the next hop the same table row records (-1 when it
// records none). For truncated levels the estimate is the Lemma 4.10
// combination and the row holds no hop: levelNextHop derives one.
func (sch *Scheme) levelEstimate(x int, l int, s int32) (d float64, via int32, ok bool) {
	if sch.R[l] != nil {
		e, found := sch.oracles[l].Estimate(x, s)
		if !found {
			return 0, -1, false
		}
		return e.Dist, e.Via, true
	}
	d, ok = sch.levelDist(x, l, s)
	return d, -1, ok
}

// levelDist is levelEstimate's distance alone: a direct level reads only
// its oracle's distance column.
//
//pde:hotpath
func (sch *Scheme) levelDist(x int, l int, s int32) (float64, bool) {
	if sch.R[l] != nil {
		return sch.oracles[l].Dist(x, s)
	}
	dist, found := sch.simDist[l][s]
	if !found {
		return 0, false
	}
	best, t := sch.SkelR.Potential(x, sch.SkelIdx, dist)
	return best, t >= 0
}

// levelNextHop returns x's next hop toward s at level l.
func (sch *Scheme) levelNextHop(x int, l int, s int32) (int, bool) {
	if x == int(s) {
		return x, true
	}
	if sch.R[l] != nil {
		return sch.oracles[l].NextHop(x, s)
	}
	dist, ok := sch.simDist[l][s]
	if !ok {
		return -1, false
	}
	// Potential step: toward the skeleton node minimizing
	// wd'(x,t) + simdist(t,s); at the argmin skeleton node, follow the
	// simulated via chain.
	_, t := sch.SkelR.Potential(x, sch.SkelIdx, dist)
	if t < 0 {
		return -1, false
	}
	if int(t) == x {
		via := sch.simVia[l][s][sch.SkelIdx[t]]
		if via < 0 {
			return -1, false
		}
		t = sch.Skel[via]
	}
	return sch.skelOracle.NextHop(x, t)
}

// computePivots derives s'_l(v) and bunch sizes for every level.
func (sch *Scheme) computePivots() error {
	n := sch.G.N()
	sch.Pivot = make([][]int32, sch.K)
	sch.PivotDist = make([][]float64, sch.K)
	sch.BunchSize = make([][]int, sch.K)
	for l := 1; l < sch.K; l++ {
		sch.Pivot[l] = make([]int32, n)
		sch.PivotDist[l] = make([]float64, n)
		for v := 0; v < n; v++ {
			sch.Pivot[l][v] = -1
			sch.PivotDist[l][v] = math.Inf(1)
		}
	}
	for l := 1; l < sch.K; l++ {
		for v := 0; v < n; v++ {
			if sch.R[l] != nil {
				// Pivot s'_l(v): the level-l instance's nearest source
				// (its lists are sorted by (Dist, Src)).
				if len(sch.R[l].Lists[v]) > 0 {
					e := sch.R[l].Lists[v][0]
					sch.Pivot[l][v] = e.Src
					sch.PivotDist[l][v] = e.Dist
				}
			} else {
				// Truncated: minimize the combined estimate over S_l.
				for _, s := range sch.Levels[l] {
					if d, ok := sch.levelDist(v, l, s); ok {
						if d < sch.PivotDist[l][v] ||
							(d == sch.PivotDist[l][v] && s < sch.Pivot[l][v]) {
							sch.Pivot[l][v] = s
							sch.PivotDist[l][v] = d
						}
					}
				}
			}
			if sch.Pivot[l][v] < 0 && len(sch.Levels[l]) > 0 {
				return fmt.Errorf("compact: node %d found no level-%d pivot; increase C", v, l)
			}
		}
	}
	// Bunch sizes |S'_l(v)|: entries of the level-l instance closer than
	// the level-(l+1) pivot.
	for l := 0; l < sch.K; l++ {
		sch.BunchSize[l] = make([]int, n)
		for v := 0; v < n; v++ {
			thrD := math.Inf(1)
			var thrS int32 = math.MaxInt32
			if l+1 < sch.K {
				thrD = sch.PivotDist[l+1][v]
				thrS = sch.Pivot[l+1][v]
			}
			count := 0
			if sch.R[l] != nil {
				for _, e := range sch.R[l].Lists[v] {
					if e.Dist < thrD || (e.Dist == thrD && e.Src < thrS) {
						count++
					}
				}
			} else {
				for _, s := range sch.Levels[l] {
					if d, ok := sch.levelDist(v, l, s); ok {
						if d < thrD || (d == thrD && s < thrS) {
							count++
						}
					}
				}
			}
			sch.BunchSize[l][v] = count
		}
	}
	return nil
}

// buildTreesAndLabels assembles λ(v) from Lemma 4.4's forest of T^l_s at
// every level l ≥ 1.
func (sch *Scheme) buildTreesAndLabels() error {
	n := sch.G.N()
	sch.Trees = make([]map[int32]*treelabel.Labeling, sch.K)
	sch.Labels = make([]Label, n)
	for v := 0; v < n; v++ {
		sch.Labels[v] = Label{Node: int32(v), Per: make([]LevelLabel, sch.K-1)}
	}
	for l := 1; l < sch.K; l++ {
		forest, err := treelabel.BuildForest(sch.Pivot[l], func(cur int, s int32) (int, bool) {
			return sch.levelNextHop(cur, l, s)
		})
		if err != nil {
			return fmt.Errorf("compact: level %d: %w", l, err)
		}
		sch.Trees[l] = forest.Trees
		sch.Rounds.TreeLabeling += forest.Rounds
		for v := 0; v < n; v++ {
			s := sch.Pivot[l][v]
			if s < 0 {
				continue
			}
			sch.Labels[v].Per[l-1] = LevelLabel{Skel: s, Dist: sch.PivotDist[l][v], Tree: forest.Label(v, s)}
			sch.maxLabelDist = max(sch.maxLabelDist, sch.PivotDist[l][v])
		}
	}
	return nil
}

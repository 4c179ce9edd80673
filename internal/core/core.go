// Package core implements the paper's primary contribution: partial
// distance estimation (PDE, Definition 2.2) via the weighted-to-unweighted
// reduction of §3.
//
// For i = 0..i_max (i_max = ⌈log_{1+ε} w_max⌉), edge weights are rounded up
// to multiples of b(i) = (1+ε)^i and each edge is subdivided into
// ⌈W(e)/b(i)⌉ unit edges, giving the virtual graph G_i. Unweighted source
// detection (package detection) runs on every G_i with hop bound
// h' = ⌈(1+ε)²·h/ε⌉ — by Lemma 3.1/Corollary 3.2 the instance i_{v,s}
// "responsible" for a pair within h real hops keeps its virtual hop
// distance under h'. The estimates w̃d(v,s) = min_i b(i)·hd_i(v,s) are then
// (1+ε)-sound, and each node outputs the σ lexicographically smallest.
//
// Total round budget: (i_max+1)·(h' + min(σ,|S|) + 1) plus the O(D) setup
// that aggregates w_max — the O((h+σ)ε⁻²·log n + D) of Corollary 3.5. The
// per-instance routing tables realize the corollary's stretch-(1+ε)
// stateless routing to every detected node.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pde/internal/congest"
	"pde/internal/detection"
	"pde/internal/graph"
)

// Params configures one (1+ε)-approximate (S, h, σ)-estimation.
type Params struct {
	// IsSource marks the source set S.
	IsSource []bool
	// Flags carries per-source metadata bits (§4 hierarchies). May be nil.
	Flags []uint8
	// H is the hop bound h in real hops.
	H int
	// Sigma is σ.
	Sigma int
	// Epsilon is the approximation slack ε > 0.
	Epsilon float64
	// CapMessages applies the Lemma 3.4 message cap (on by default in
	// New; the ablation switches it off).
	CapMessages bool
	// Scheduling is forwarded to the detection substrate.
	Scheduling detection.Scheduling
	// Delays is forwarded to the detection substrate for Priority
	// scheduling (the randomized baseline).
	Delays []int32
	// ExtraRounds widens every instance's round budget (randomized
	// scheduling needs room for its delays).
	ExtraRounds int
	// SkipSetup omits the distributed w_max aggregation (used when the
	// caller already accounts for it, e.g. when several PDE instances
	// share one setup phase).
	SkipSetup bool
}

// Estimate is one entry of a node's PDE output list. It is also the
// payload of the serving layer's PDEA answer record (internal/server
// codec), so every field is fixed-width.
//
//pde:wire size=21
type Estimate struct {
	// Dist is w̃d(v, Src) = b(i)·hd_i for the best instance i.
	Dist float64
	// Src is the detected source.
	Src int32
	// Via is the next hop toward Src (the real neighbor the best pair
	// arrived from), or -1 when Src is the node itself.
	Via int32
	// Instance is the instance index achieving Dist (int32: this field
	// crosses the binary codec).
	Instance int32
	// Flag carries the source's metadata bits.
	Flag uint8
}

// Instance is one level of the rounding hierarchy together with its
// detection output (the per-instance routing table of Corollary 3.5).
type Instance struct {
	// Base is b(i) = (1+ε)^i.
	Base float64
	// Lengths[edgeID] is the subdivided length ⌈W(e)/b(i)⌉.
	Lengths []int32
	// Det is the (S, h', σ)-detection output on G_i.
	Det *detection.Result
}

// Result is the full PDE output.
type Result struct {
	// Lists[v] holds up to σ estimates sorted by (Dist, Src): the list
	// L_v of Definition 2.2.
	Lists [][]Estimate
	// Instances are the per-level tables, in increasing i.
	Instances []*Instance
	// HPrime is the virtual hop bound h' used on every instance.
	HPrime int
	// SetupRounds, BudgetRounds and ActiveRounds account the run:
	// BudgetRounds is the deterministic bound the algorithm must be
	// granted (the paper's round complexity); ActiveRounds is how many
	// rounds actually carried work.
	SetupRounds  int
	BudgetRounds int
	ActiveRounds int
	// Messages and MessageBits total the real CONGEST traffic.
	Messages    int64
	MessageBits int64
	// BroadcastsByNode[v] sums v's own announcements over all instances
	// (Corollary 3.5 bounds its max by O(σ²/ε·log n)).
	BroadcastsByNode []int64
	// Params echoes the configuration.
	Params Params
}

// MaxBroadcasts returns the per-node maximum of BroadcastsByNode.
func (r *Result) MaxBroadcasts() int64 {
	var best int64
	for _, b := range r.BroadcastsByNode {
		if b > best {
			best = b
		}
	}
	return best
}

// TableWords returns node v's stored table size in words: three (source,
// distance, next hop) per entry of every instance's detection list, the
// per-instance routing tables of Corollary 3.5.
func (r *Result) TableWords(v int) int {
	words := 0
	for _, inst := range r.Instances {
		words += 3 * len(inst.Det.Lists[v])
	}
	return words
}

// Estimate returns the combined estimate w̃d(v, s) over all instances,
// with the best instance and next hop, if s was detected at all.
func (r *Result) Estimate(v int, s int32) (Estimate, bool) {
	best := Estimate{Dist: math.Inf(1)}
	found := false
	for i, inst := range r.Instances {
		e, ok := inst.Det.Lookup(v, s)
		if !ok {
			continue
		}
		d := float64(e.Dist) * inst.Base
		if !found || d < best.Dist {
			best = Estimate{Dist: d, Src: s, Via: e.Via, Instance: int32(i), Flag: e.Flag}
			found = true
		}
	}
	return best, found
}

// Lookup returns v's output-list entry for s, if present.
func (r *Result) Lookup(v int, s int32) (Estimate, bool) {
	for _, e := range r.Lists[v] {
		if e.Src == s {
			return e, true
		}
	}
	return Estimate{}, false
}

// HPrimeFor returns the virtual hop bound h' = ⌈(1+ε)²·h/ε⌉ that
// Corollary 3.2 requires.
func HPrimeFor(h int, eps float64) int {
	return int(math.Ceil((1 + eps) * (1 + eps) * float64(h) / eps))
}

// NumInstances returns i_max + 1 for the given maximum weight: i_max is the
// smallest i with b(i) = (1+ε)^i ≥ w_max under the same math.Pow that Run
// uses for the bases. A raw ⌈log(w_max)/log(1+ε)⌉ can round up at w_max
// near exact powers of 1+ε and build a spurious extra detection instance
// (wasted rounds and messages), so the log form only seeds the answer and
// a few Pow probes settle the exact crossing — O(1) even for tiny ε,
// where a pure multiplicative loop would spin ~ln(w_max)/ε iterations.
func NumInstances(maxW graph.Weight, eps float64) int {
	if maxW <= 1 || 1+eps == 1 {
		// Degenerate ε (positive but below float64 resolution) makes every
		// base 1 and no i could ever reach w_max; Run rejects such ε up
		// front, and this clamp keeps the exported helper total.
		return 1
	}
	// Seed with log of the SAME rounded base Pow exponentiates — not
	// Log1p(eps), whose extra precision diverges from Pow's base by up to
	// ~1e-4 relative near float64 resolution and would put the seed
	// astronomically far from the Pow crossing. Pow and Log still drift
	// apart by ~1e-8 relative at huge exponents, so the bounded correction
	// guarantees exactness only for hierarchies Run accepts (depth ≤
	// maxHierarchyInstances, where the drift is far below one iteration);
	// beyond that the result is approximate but still O(1) and monotone
	// enough for the rejection check.
	i := int(math.Ceil(math.Log(float64(maxW)) / math.Log(1+eps)))
	if i < 0 {
		i = 0
	}
	for steps := 0; steps < 256 && i > 0 && math.Pow(1+eps, float64(i-1)) >= float64(maxW); steps++ {
		i--
	}
	for steps := 0; steps < 256 && math.Pow(1+eps, float64(i)) < float64(maxW); steps++ {
		i++
	}
	return i + 1
}

// poolWidthHook, when non-nil, observes the instance-pool width each Run
// resolves. Test instrumentation only: bit-identical outputs make the
// pool invisible in results, so a regression that silently stopped
// parallelizing the build would otherwise pass every determinism check.
var poolWidthHook func(outer int)

// maxHierarchyInstances rejects rounding hierarchies so deep that building
// them would grind for hours (ε pathologically small relative to w_max):
// the caller gets a clear error instead of a silent multi-hour spin or an
// allocation panic.
const maxHierarchyInstances = 1 << 16

// Run executes PDE on g. It is deterministic: the same graph and
// parameters always produce the same output, rounds and messages — the
// derandomization claim of Theorem 4.1.
func Run(g *graph.Graph, p Params, cfg congest.Config) (*Result, error) {
	res, _, err := Build(g, p, cfg, nil)
	return res, err
}

// Build is the one build path: Run is Build without a previous result,
// Patch is Build with one. When prev is non-nil it must be a result of
// the same Params on a graph with g's structure (same nodes, edges and
// edge ids); every rounding instance whose base and subdivided lengths
// on g are identical to prev's is then reused by pointer instead of
// re-detected. Merge and combine always re-run, so the output is
// bit-identical to a fresh Run on g either way, and the stats say how
// much of the hierarchy was reused.
func Build(g *graph.Graph, p Params, cfg congest.Config, prev *Result) (*Result, PatchStats, error) {
	var ps PatchStats
	n := g.N()
	if len(p.IsSource) != n {
		return nil, ps, fmt.Errorf("core: IsSource has %d entries for %d nodes", len(p.IsSource), n)
	}
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 1) {
		return nil, ps, fmt.Errorf("core: epsilon %v must be positive and finite", p.Epsilon)
	}
	if 1+p.Epsilon == 1 {
		return nil, ps, fmt.Errorf("core: epsilon %v is below float64 resolution (1+ε == 1)", p.Epsilon)
	}
	if p.H < 0 || p.Sigma < 0 {
		return nil, ps, fmt.Errorf("core: negative H=%d or Sigma=%d", p.H, p.Sigma)
	}
	res := &Result{
		HPrime:           HPrimeFor(p.H, p.Epsilon),
		BroadcastsByNode: make([]int64, n),
		Params:           p,
	}

	// Setup: aggregate w_max over a BFS tree so every node can compute
	// i_max locally — the +D term of Corollary 3.5.
	maxW := g.MaxWeight()
	if !p.SkipSetup && n > 0 {
		tree, tm, err := congest.BuildBFSTree(g, 0, cfg.Sub())
		if err != nil {
			return nil, ps, fmt.Errorf("core: setup BFS tree: %w", err)
		}
		local := make([]int64, n)
		for v := 0; v < n; v++ {
			for _, e := range g.Neighbors(v) {
				if int64(e.W) > local[v] {
					local[v] = int64(e.W)
				}
			}
		}
		agg, am, err := congest.Aggregate(g, tree, local, func(a, b int64) int64 { return max(a, b) }, cfg.Sub())
		if err != nil {
			return nil, ps, fmt.Errorf("core: setup aggregate: %w", err)
		}
		if graph.Weight(agg) != maxW {
			return nil, ps, fmt.Errorf("core: aggregated w_max %d != %d", agg, maxW)
		}
		res.SetupRounds = tm.ActiveRounds + am.ActiveRounds
		res.Messages += tm.Messages + am.Messages
		res.MessageBits += tm.MessageBits + am.MessageBits
	}

	// The rounding hierarchy. The i_max+1 instances are mutually
	// independent — instance i reads only the graph, the (read-only)
	// params and its own lengths/delays — so the build pipeline runs them
	// concurrently on a worker pool when the caller's config is parallel.
	// The worker budget splits between the instance pool and each
	// instance's engine; the merge below consumes results in ascending
	// instance order, so sequential and parallel builds are bit-identical
	// (Result.Fingerprint makes that checkable, and the bench build layer
	// and the -race property tests enforce it rather than assume it).
	num := NumInstances(maxW, p.Epsilon)
	if num > maxHierarchyInstances {
		return nil, ps, fmt.Errorf("core: epsilon %v needs %d rounding instances for w_max %d (limit %d)",
			p.Epsilon, num, maxW, maxHierarchyInstances)
	}
	// Each worker keeps one detection.Arena for the instances it builds —
	// the units' storage is cleared between them, not reallocated — and
	// drops it when Build returns.
	buildOne := func(i int, sub congest.Config, arena *detection.Arena) (*Instance, error) {
		base := math.Pow(1+p.Epsilon, float64(i))
		lengths := instanceLengths(g, base)
		if pi := prev.reusable(i, base, lengths); pi != nil {
			return pi, nil
		}
		dp := detection.Params{
			IsSource:    p.IsSource,
			Flags:       p.Flags,
			H:           res.HPrime,
			Sigma:       p.Sigma,
			Lengths:     lengths,
			CapMessages: p.CapMessages,
			Scheduling:  p.Scheduling,
			Delays:      p.Delays,
			ExtraRounds: p.ExtraRounds,
		}
		det, err := arena.Run(g, dp, sub)
		if err != nil {
			return nil, fmt.Errorf("core: instance %d: %w", i, err)
		}
		return &Instance{Base: base, Lengths: lengths, Det: det}, nil
	}

	insts := make([]*Instance, num)
	outer := cfg.EffectiveWorkers()
	if outer > num {
		outer = num
	}
	if poolWidthHook != nil {
		poolWidthHook(outer)
	}
	if outer > 1 {
		// Instance-level parallelism: outer instances in flight, each on an
		// engine of width ⌊W/outer⌋ (sequential when that is 1 — the two
		// engines are bit-identical, so this is purely a scheduling split).
		inner := congest.Config{B: cfg.B}
		if iw := cfg.EffectiveWorkers() / outer; iw > 1 {
			inner.Parallel = true
			inner.Workers = iw
		}
		errs := make([]error, num)
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < outer; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var arena detection.Arena
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= num {
						return
					}
					insts[i], errs[i] = buildOne(i, inner, &arena)
				}
			}()
		}
		wg.Wait()
		// The lowest-index error is what the sequential loop would have
		// returned; reporting it keeps the two paths interchangeable.
		for _, err := range errs {
			if err != nil {
				return nil, ps, err
			}
		}
	} else {
		var arena detection.Arena
		for i := 0; i < num; i++ {
			inst, err := buildOne(i, cfg.Sub(), &arena)
			if err != nil {
				return nil, ps, err
			}
			insts[i] = inst
		}
	}

	ps.Instances = num
	for i, inst := range insts {
		if prev != nil && i < len(prev.Instances) && inst == prev.Instances[i] {
			ps.Reused++
		} else {
			ps.Rebuilt++
		}
	}

	// Deterministic merge: accounting accumulates in ascending instance
	// order regardless of build order.
	res.Instances = insts
	for _, inst := range insts {
		det := inst.Det
		res.BudgetRounds += det.Budget
		res.ActiveRounds += det.Metrics.ActiveRounds
		res.Messages += det.Metrics.Messages
		res.MessageBits += det.Metrics.MessageBits
		for v := 0; v < n; v++ {
			res.BroadcastsByNode[v] += det.SelfEmits[v]
		}
	}
	res.BudgetRounds += res.SetupRounds

	res.Lists = combine(res.Instances, n, p.Sigma)
	return res, ps, nil
}

// head is the next unread entry of one instance's list in combine's merge.
type head struct {
	dist float64
	src  int32
	inst int32
	pos  int32
}

// less orders heads by (dist, src), the lower instance first on a tie.
func (a head) less(b head) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.inst < b.inst
}

// combine computes w̃d(v,s) = min_i b(i)·hd_i(v,s) and outputs each node's
// σ smallest by (Dist, Src). Every instance's list is already sorted by
// (Dist, Src) — scaling by the instance's base keeps the order — so a
// merge over the list heads meets each source first at its minimum, the
// lowest instance winning a tie, and can stop at σ sources.
func combine(insts []*Instance, n, sigma int) [][]Estimate {
	lists := make([][]Estimate, n)
	heap := make([]head, 0, len(insts))
	taken := make([]int32, n) // taken[s] == v+1: s is already in v's output
	var out []Estimate
	for v := range lists {
		heap = heap[:0]
		for i, inst := range insts {
			if l := inst.Det.Lists[v]; len(l) > 0 {
				heap = append(heap, head{dist: float64(l[0].Dist) * inst.Base, src: l[0].Src, inst: int32(i)})
			}
		}
		for i := len(heap)/2 - 1; i >= 0; i-- {
			siftDown(heap, i)
		}
		out = out[:0]
		for len(heap) > 0 && len(out) < sigma {
			h := &heap[0]
			inst := insts[h.inst]
			l := inst.Det.Lists[v]
			if taken[h.src] != int32(v)+1 {
				taken[h.src] = int32(v) + 1
				e := l[h.pos]
				out = append(out, Estimate{Dist: h.dist, Src: e.Src, Via: e.Via, Instance: h.inst, Flag: e.Flag})
			}
			if h.pos++; int(h.pos) < len(l) {
				h.dist, h.src = float64(l[h.pos].Dist)*inst.Base, l[h.pos].Src
			} else {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
			}
			siftDown(heap, 0)
		}
		lists[v] = append(make([]Estimate, 0, len(out)), out...)
	}
	return lists
}

// siftDown restores the min-heap order below position i.
func siftDown(h []head, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// APSPParams returns the Theorem 4.1 configuration: S = V, h = σ = n.
func APSPParams(n int, eps float64) Params {
	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}
	return Params{IsSource: all, H: n, Sigma: n, Epsilon: eps, CapMessages: true}
}

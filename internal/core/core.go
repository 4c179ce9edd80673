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
// (1+ε)-sound. Build computes each node's row of them once, laid out by
// source id in the Result's Table (what package oracle serves), and each
// node outputs the row's σ lexicographically smallest as its list.
//
// Total round budget: (i_max+1)·(h' + min(σ,|S|) + 1) plus the O(D) setup
// that aggregates w_max — the O((h+σ)ε⁻²·log n + D) of Corollary 3.5. The
// per-instance routing tables realize the corollary's stretch-(1+ε)
// stateless routing to every detected node.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"pde/internal/congest"
	"pde/internal/detection"
	"pde/internal/graph"
	"pde/internal/par"
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
	// Delays, when non-nil, replaces the paper's lexicographic schedule
	// with detection.Priority under these per-source start delays (the
	// randomized baseline of package baseline).
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
	// Base is b(i) = (1+ε)^i; detection.Params.Length derives each
	// edge's subdivided length ⌈W(e)/b(i)⌉ from it.
	Base float64
	// Det is the (S, h', σ)-detection output on G_i.
	Det *detection.Result

	// cells is Σ ℓ(e) over the edges with ℓ(e) ≤ h′, about the number of
	// relay cells the instance lays out: the key claimOrder sorts by.
	cells int64

	// digest memoizes the instance's share of Result.Fingerprint. It is
	// filled on the first Fingerprint, not by a cold Build (digesting every
	// instance in buildOne made a cold build 15 % slower); an instance that
	// Build reuses by pointer carries it into the next generation, and one
	// it repairs from a digested instance gets it from that one's, with
	// only the region's rows digested again.
	digest atomic.Pointer[instDigest]
}

// Result is the full PDE output.
type Result struct {
	// Lists[v] holds up to σ estimates sorted by (Dist, Src): the list
	// L_v of Definition 2.2, the σ-prefix of Table's row v in that order.
	Lists [][]Estimate
	// Table holds every node's row: w̃d(v,s) for each source some instance
	// detected at v, laid out by source id in pages of rows. It is
	// immutable, and package oracle serves from it.
	Table Table
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

	// g is the graph the result was built on: a delta Build zips it
	// against the new graph to find the edges whose weight moved.
	g *graph.Graph

	// changed holds the edges whose weight differs between the graph of
	// the previous result Build was handed and g, nil for a cold build.
	changed []graph.Reweight

	// setup is the +D setup's tree and what it cost, which a delta Build
	// reuses; its tree is nil under SkipSetup.
	setup setup

	// rows memoizes one digest word per row of Lists for Fingerprint; a
	// delta build from a digested prev takes the unmoved rows' words from
	// it.
	rows atomic.Pointer[[]uint64]

	// moved[v] is false when v's row is prev's: every instance's list at v
	// equals the list of the previous result Build was handed, so Lists[v]
	// is prev.Lists[v] and Table's row v is prev's. It is nil when every
	// row was computed afresh (a cold build, or a hierarchy whose depth
	// changed).
	moved []bool
}

// Changed returns the edges whose weight differs between the graph of
// the previous result Build was handed and the result's own, in
// ascending (U, V) order; nil for a cold build.
func (r *Result) Changed() []graph.Reweight { return r.changed }

// RowMoved reports whether node v's row — its list and its table row —
// may differ from the previous result's. It is false only where every
// instance's list at v equals prev's, and true everywhere after a cold
// build or one whose hierarchy changed depth.
func (r *Result) RowMoved(v int) bool { return r.moved == nil || r.moved[v] }

// TableWords returns node v's stored table size in words: three (source,
// distance, next hop) per entry of every instance's detection list, the
// per-instance routing tables of Corollary 3.5.
func (r *Result) TableWords(v int) int {
	words := 0
	var buf []detection.Entry
	for _, inst := range r.Instances {
		buf = inst.Det.List(v, buf)
		words += 3 * len(buf)
	}
	return words
}

// hPrimeFor returns the virtual hop bound h' = ⌈(1+ε)²·h/ε⌉ that
// Corollary 3.2 requires.
func hPrimeFor(h int, eps float64) int {
	return int(math.Ceil((1 + eps) * (1 + eps) * float64(h) / eps))
}

// numInstances returns i_max + 1 for the given maximum weight: i_max is the
// smallest i with b(i) = (1+ε)^i ≥ w_max under the same math.Pow that Run
// uses for the bases. A raw ⌈log(w_max)/log(1+ε)⌉ can round up at w_max
// near exact powers of 1+ε and build a spurious extra detection instance
// (wasted rounds and messages), so the log form only seeds the answer and
// a few Pow probes settle the exact crossing — O(1) even for tiny ε,
// where a pure multiplicative loop would spin ~ln(w_max)/ε iterations.
func numInstances(maxW graph.Weight, eps float64) int {
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
var poolWidthHook func(width int)

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

// ErrOtherStructure is Build's refusal of a previous result built on a
// graph of another structure: the caller builds without it.
var ErrOtherStructure = errors.New("core: the previous result was built on a graph of another structure; build without it")

// Build is the one build path: Run is Build without a previous result,
// Patch is Build with one. When prev is non-nil it must be a result of
// the same Params (Build refuses other ones, SkipSetup aside) on a graph
// with g's structure (same nodes, edges and edge ids; Build refuses
// another with ErrOtherStructure). One zip of prev's graph against g
// finds the edges whose weight changed, and they alone decide each
// instance: one none of whose subdivided lengths (clamped at h′+1) moved
// is reused by pointer instead of re-detected, and every other instance
// prev has is repaired from prev's (detection.Arena.Repair) unless the
// repair falls back to a full run. When the hierarchy kept its depth,
// each re-detected list is compared with prev's — a repaired instance's
// only in its region — and only the rows where one differs are computed
// again; the others are prev's rows, in Lists and in Table. The lists and
// table are bit-identical to a fresh Run on g either way, and so is
// everything Fingerprint covers.
//
// The setup is reused too. Its BFS tree depends on the structure alone,
// so a delta build takes prev's (it builds one only when prev has none,
// having been built under SkipSetup), and it re-runs the w_max aggregate
// over the tree only when a changed edge was at prev's w_max or rose
// above it; otherwise w_max is prev's. Tree and aggregate rounds depend
// on the structure alone as well, so SetupRounds is a cold run's.
//
// The accounting (ActiveRounds, Messages, MessageBits, BroadcastsByNode)
// sums each instance's own Metrics and SelfEmits, those of whatever built
// it: a cold run, a full re-detection or a repair, in this build or an
// earlier one. Messages and MessageBits carry the setup's the same way:
// the tree's and the aggregate's share are those of the build that last
// ran them. The accounting is a cold run's only for a cold build; what
// this update itself cost is in the stats, PatchStats.Setup* for the
// setup and PatchStats.Repair* for the repairs.
func Build(g *graph.Graph, p Params, cfg congest.Config, prev *Result) (*Result, PatchStats, error) {
	var ps PatchStats
	var changed []graph.Reweight
	if prev != nil {
		var same bool
		if changed, same = g.Reweights(prev.g); !same {
			return nil, ps, ErrOtherStructure
		}
		if !sameRecipe(prev.Params, p) {
			return nil, ps, fmt.Errorf("core: the previous result was built with other params; build without it")
		}
	}
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
		HPrime:           hPrimeFor(p.H, p.Epsilon),
		BroadcastsByNode: make([]int64, n),
		Params:           p,
		g:                g,
		changed:          changed,
	}

	// Setup: aggregate w_max over a BFS tree so every node can compute
	// i_max locally — the +D term of Corollary 3.5.
	maxW := g.MaxWeight()
	if !p.SkipSetup && n > 0 {
		var spent congest.Metrics
		var err error
		if res.setup, spent, err = setUp(g, cfg, prev, changed); err != nil {
			return nil, ps, err
		}
		tree, agg := res.setup.tree, res.setup.agg
		res.SetupRounds = tree.ActiveRounds + agg.ActiveRounds
		res.Messages += tree.Messages + agg.Messages
		res.MessageBits += tree.MessageBits + agg.MessageBits
		ps.SetupRounds, ps.SetupMessages = spent.ActiveRounds, spent.Messages
	}

	// The rounding hierarchy. The i_max+1 instances are mutually
	// independent — instance i reads only the graph, the (read-only)
	// params and its own base — so the ones not reused from prev
	// are detected by par.For on min(EffectiveWorkers, re-detected)
	// goroutines, each instance on one sequential engine. The merge below
	// consumes results in ascending instance order, so every pool width is
	// bit-identical (Result.Fingerprint makes that checkable, and the
	// bench build layer and the -race property tests enforce it rather
	// than assume it).
	num := numInstances(maxW, p.Epsilon)
	if num > maxHierarchyInstances {
		return nil, ps, fmt.Errorf("core: epsilon %v needs %d rounding instances for w_max %d (limit %d)",
			p.Epsilon, num, maxW, maxHierarchyInstances)
	}
	insts := make([]*Instance, num)
	// from[i] is prev's instance i when the new one is re-detected, so
	// that a worker can repair it instead around the edges moved[i];
	// reps[i] is then what the repair did (a nil Result: detected in
	// full). sameRecipe holds ε, and so every base, equal to prev's.
	from := make([]*Instance, num)
	moved := make([][]graph.Reweight, num)
	reps := make([]detection.Repaired, num)
	var todo []int
	for i := range insts {
		dp := detection.Params{H: res.HPrime, Base: math.Pow(1+p.Epsilon, float64(i))}
		if prev != nil && i < len(prev.Instances) {
			old := prev.Instances[i]
			var dcells int64
			if moved[i], dcells = moves(changed, &dp); moved[i] == nil {
				insts[i] = old
				continue
			}
			insts[i], from[i] = &Instance{Base: dp.Base, cells: old.cells + dcells}, old
		} else {
			insts[i] = &Instance{Base: dp.Base, cells: relayCells(g, &dp)}
		}
		todo = append(todo, i)
	}
	claimOrder(todo, insts)

	// Each pool worker keeps one detection.Arena — the units' storage and
	// the engine under them — for the instances it builds, and drops it
	// when Build returns. Claiming the largest instances first sizes a
	// worker's arena at its first claim, and is longest-first load
	// balancing.
	sched := detection.LexSmallest
	if p.Delays != nil {
		sched = detection.Priority
	}
	errs := make([]error, num)
	width := par.Width(cfg.EffectiveWorkers(), len(todo))
	if poolWidthHook != nil {
		poolWidthHook(width)
	}
	arenas := make([]detection.Arena, width)
	// failedAt is the lowest failed instance index so far. An instance
	// above it is skipped; every one below it runs, so the error reported
	// below — the lowest-index one — is the same at every width and claim
	// order. fn reports no error to par.For, whose claim order is not the
	// instance order.
	var failedAt atomic.Int64
	failedAt.Store(int64(num))
	par.For(width, len(todo), func(w, k int) error {
		i := todo[k]
		if int64(i) > failedAt.Load() {
			return nil
		}
		inst := insts[i]
		dp := detection.Params{
			IsSource:    p.IsSource,
			Flags:       p.Flags,
			H:           res.HPrime,
			Sigma:       p.Sigma,
			Base:        inst.Base,
			CapMessages: true, // the Lemma 3.4 cap Theorem 3.3 counts under
			Scheduling:  sched,
			Delays:      p.Delays,
			ExtraRounds: p.ExtraRounds,
		}
		var det *detection.Result
		var err error
		if old := from[i]; old != nil {
			reps[i], err = arenas[w].Repair(g, dp, cfg.B, old.Det, moved[i])
			det = reps[i].Result
		}
		if det == nil && err == nil {
			det, err = arenas[w].Run(g, dp, cfg.B)
		}
		if err != nil {
			errs[i] = fmt.Errorf("core: instance %d: %w", i, err)
			for f := failedAt.Load(); int64(i) < f; f = failedAt.Load() {
				if failedAt.CompareAndSwap(f, int64(i)) {
					break
				}
			}
			return nil
		}
		inst.Det = det
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, ps, err
		}
	}

	ps.InstancesTotal, ps.InstancesRebuilt, ps.InstancesReused = num, len(todo), num-len(todo)
	for _, i := range todo {
		if rep := reps[i]; rep.Result != nil {
			ps.InstancesRepaired++
			ps.RepairRounds += rep.Metrics.ActiveRounds
			ps.RepairMessages += rep.Metrics.Messages
			ps.RepairNodes += rep.Halo
			insts[i].carryDigest(from[i], rep.Region)
		}
	}

	// Deterministic merge: accounting accumulates in ascending instance
	// order regardless of build order.
	res.Instances = insts
	for _, inst := range insts {
		det := inst.Det
		res.BudgetRounds += det.Metrics.BudgetRounds
		res.ActiveRounds += det.Metrics.ActiveRounds
		res.Messages += det.Metrics.Messages
		res.MessageBits += det.Metrics.MessageBits
		for v := 0; v < n; v++ {
			res.BroadcastsByNode[v] += int64(det.SelfEmits[v])
		}
	}
	res.BudgetRounds += res.SetupRounds

	if prev == nil || len(prev.Instances) != num {
		res.Table, res.Lists = layRows(insts, n, p.Sigma, nil, nil)
		return res, ps, nil
	}
	var rows []int32
	res.moved, rows = movedRows(insts, prev.Instances, todo, reps, n)
	res.Table, res.Lists = layRows(insts, n, p.Sigma, prev, rows)
	res.carryRowDigests(prev, rows)
	return res, ps, nil
}

// claimOrder sorts the indices of the instances to detect into the order
// the pool claims them: by descending cells, and by ascending index on a
// tie.
func claimOrder(todo []int, insts []*Instance) {
	slices.SortStableFunc(todo, func(a, b int) int { return cmp.Compare(insts[b].cells, insts[a].cells) })
}

// APSPParams returns the Theorem 4.1 configuration: S = V, h = σ = n.
func APSPParams(n int, eps float64) Params {
	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}
	return Params{IsSource: all, H: n, Sigma: n, Epsilon: eps}
}

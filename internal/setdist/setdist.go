// Package setdist is the aggregate set-to-set distance tier: given two
// node sets A and B, it computes Chamfer (sum of min-distances),
// Hausdorff (max of min-distances) and mean-min aggregates over any
// registered scheme (internal/scheme) — the workload class of
// "how far is district A from district B" queries that single-pair
// endpoints cannot serve without |A|×|B| round trips.
//
// The paper's partial-distance-estimation machinery is what makes the
// tier cheap: a scheme estimate d̃(u, v) never underestimates the true
// distance (it is the weight of a real path, stretch-bounded above), so
// a *lower* bound on the true distance is also a lower bound on the
// estimate, and most of the |A|×|B| candidate work can be pruned against
// a running upper bound — the partial-distance-computation idiom of the
// cover-tree literature (abandon a candidate as soon as its bound
// exceeds the best seen), lifted from coordinates to graphs.
//
// Concretely, one evaluation:
//
//  1. Reads the landmark keys of the instance's graph
//     (graph.Graph.Landmarks): exact Dijkstra distance vectors from a few
//     mutually far-apart nodes — node 0, then farthest-point picks —
//     giving every node a key key₁(x) = d(c₁, x) and up to three
//     auxiliary keys. By the triangle inequality
//     d(a, b) ≥ |keyᵢ(a) − keyᵢ(b)| for each landmark; far-apart
//     landmarks discriminate candidates that a single one would see as
//     equidistant rings. The keys are a table of the graph generation,
//     not a computation of the request: the graph computes them on first
//     use and every later evaluation — any sets, any direction — reads
//     the same arrays, so a request pays no graph search. They do not
//     depend on A or B, and need not: the bound holds for any landmark
//     whatsoever, so where the landmarks sit changes how much is pruned,
//     never what is answered. They die with the graph they were measured
//     on — an update builds a new graph value, which measures its own —
//     so a key never bounds a graph whose distances have since shrunk.
//  2. Sorts each set by key₁ (once, serving both directions), so
//     candidates near a query member's key are the promising ones and
//     the first-landmark bound grows monotonically away from it.
//  3. For each member, expands candidates outward from its key₁
//     position in small AnswerInto batches, keeping the best (smallest)
//     estimate seen. A side of the expansion is abandoned — all its
//     remaining candidates pruned — as soon as its key₁ bound reaches
//     the running best; an individual candidate is skipped without a
//     query when an auxiliary bound does. The first candidates evaluated
//     are the nearest-by-key ones, so the first bound is already tight.
//
// Pruning never changes an answer: a pruned candidate b satisfies
// d̃(a, b) ≥ d(a, b) ≥ |keyᵢ(a) − keyᵢ(b)| ≥ best, so it cannot lower
// the min. The differential tests pin pruned aggregates bit-identical to
// the naive double loop on every scheme. On a disconnected graph, members outside node
// 0's component carry infinite keys, which bound nothing among
// themselves: they are evaluated exhaustively, still exactly.
//
// Conventions: a member of A that also belongs to B contributes a zero
// min-distance without a query (matching the server's v == s terminal
// semantics); a member with no finite estimate to any candidate
// contributes +Inf, which propagates into the aggregates exactly like
// graph.Stretch propagates an unreachable baseline. Both sets must be
// non-empty; duplicates are allowed and count per occurrence.
package setdist

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"
)

// evalChunk is the number of candidates one AnswerInto batch carries in
// the pruned expansion: large enough to amortize the batch-call
// overhead, small enough that the running bound stays fresh between
// flushes (stale bounds cost extra evaluations, never wrong answers).
const evalChunk = 16

// Options tunes one evaluation.
type Options struct {
	// Naive disables pruning and landmark ordering: every (x, y) pair is
	// evaluated through the scheme's batch path. This is the reference
	// twin the benchmarks time the pruned engine against; answers are
	// identical by construction.
	Naive bool
	// Workers fans the per-member evaluation across goroutines
	// (0 = GOMAXPROCS, 1 = sequential). Aggregates are reduced in member
	// order afterwards, so the result is bit-identical at any width.
	Workers int
}

// Aggregates holds one direction's (X→Y) aggregate distances. A
// direction with any unreachable member reports +Inf Chamfer, Hausdorff
// and MeanMin — the graph.Stretch convention: an unreachable baseline
// poisons the aggregate rather than silently vanishing from it.
// It is also half of the PDSA binary answer record (internal/server
// codec), so every field is fixed-width.
//
//pde:wire size=32
type Aggregates struct {
	// Chamfer is Σ_{x∈X} min_{y∈Y} d̃(x, y), the (directed) Chamfer
	// distance over the scheme's estimates.
	Chamfer float64
	// Hausdorff is max_{x∈X} min_{y∈Y} d̃(x, y), the directed Hausdorff
	// distance.
	Hausdorff float64
	// MeanMin is Chamfer / |X|.
	MeanMin float64
	// Members is |X|, counting duplicates (int32: this field crosses
	// the binary codec).
	Members int32
	// Unreachable counts members of X with no finite estimate to any
	// member of Y.
	Unreachable int32
}

// Finite reports whether the direction's aggregates are finite (no
// unreachable members).
func (a Aggregates) Finite() bool { return a.Unreachable == 0 }

// Result is one full evaluation: both directed aggregate sets, the
// symmetric Hausdorff distance, and the pruning accounting. It is the
// PDSA binary answer record (internal/server codec), so every field is
// fixed-width.
//
//pde:wire size=96
type Result struct {
	// AB aggregates A→B (min over B for each member of A); BA the
	// reverse direction.
	AB, BA Aggregates
	// Hausdorff is the symmetric Hausdorff distance
	// max(AB.Hausdorff, BA.Hausdorff).
	Hausdorff float64
	// Pairs is the total candidate count 2·|A|·|B| a naive evaluation
	// would consider.
	Pairs int64
	// Evaluated is the number of scheme estimates actually computed;
	// Pruned = Pairs − Evaluated is what the bound (and the free
	// zero-distance self matches) skipped.
	Evaluated int64
	Pruned    int64
}

// Eval computes the set-to-set aggregates between a and b over the
// scheme instance's estimate surface. Both sets must be non-empty and
// every id in [0, n); the instance is read-only, so concurrent Evals
// against one instance are safe.
func Eval(inst scheme.Instance, a, b []int32, opt Options) (*Result, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, fmt.Errorf("setdist: both sets must be non-empty (|A|=%d, |B|=%d)", len(a), len(b))
	}
	n := int32(inst.Graph().N())
	for i, v := range a {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("setdist: A[%d] = %d outside [0, %d)", i, v, n)
		}
	}
	for i, v := range b {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("setdist: B[%d] = %d outside [0, %d)", i, v, n)
		}
	}
	res := &Result{Pairs: 2 * int64(len(a)) * int64(len(b))}
	mins := make([]float64, len(a)+len(b))
	minAB, minBA := mins[:len(a)], mins[len(a):]
	if opt.Naive {
		res.Evaluated = naiveMins(inst, a, b, minAB, opt.Workers) +
			naiveMins(inst, b, a, minBA, opt.Workers)
	} else {
		// Everything the two directions share is made once: the
		// generation's landmark keys, each set sorted by them, and the
		// membership stamps behind the free self matches.
		lm := inst.Graph().Landmarks()
		ca, cb := sortedCandidates(lm, a), sortedCandidates(lm, b)
		member := make([]uint8, n)
		for _, v := range a {
			member[v] |= inA
		}
		for _, v := range b {
			member[v] |= inB
		}
		res.Evaluated = prunedMins(inst, a, cb, lm, member, inB, minAB, opt.Workers) +
			prunedMins(inst, b, ca, lm, member, inA, minBA, opt.Workers)
	}
	res.AB, res.BA = aggregate(minAB), aggregate(minBA)
	res.Pruned = res.Pairs - res.Evaluated
	res.Hausdorff = math.Max(res.AB.Hausdorff, res.BA.Hausdorff)
	return res, nil
}

// aggregate reduces one direction's per-member minima in member order,
// independent of the worker fan-out, so the float sums are bit-identical
// at any width.
func aggregate(minD []float64) Aggregates {
	agg := Aggregates{Members: int32(len(minD))}
	for _, d := range minD {
		if math.IsInf(d, 1) {
			agg.Unreachable++
		}
		agg.Chamfer += d
		if d > agg.Hausdorff {
			agg.Hausdorff = d
		}
	}
	agg.MeanMin = agg.Chamfer / float64(len(minD))
	return agg
}

// estimate converts one scheme answer to the engine's distance scale: a
// miss is +Inf (no estimate exists, the unreachable convention).
func estimate(ans oracle.Answer) float64 {
	if !ans.OK {
		return math.Inf(1)
	}
	return ans.Est.Dist
}

// naiveMins fills minD[i] with min over Y of the scheme estimate from
// x[i], evaluating every non-self candidate — the |X|×|Y| reference.
func naiveMins(inst scheme.Instance, x, y []int32, minD []float64, workers int) int64 {
	var evaluated atomic.Int64
	scheme.FanOut(len(x), workers, func(lo, hi int) {
		qs := make([]oracle.Query, len(y))
		out := make([]oracle.Answer, len(y))
		var local int64
		for i := lo; i < hi; i++ {
			xi := x[i]
			best := math.Inf(1)
			k := 0
			for _, yi := range y {
				if yi == xi {
					best = 0 // self match: zero by convention, no query
					continue
				}
				qs[k] = oracle.Query{V: xi, S: yi}
				k++
			}
			if k > 0 {
				inst.AnswerInto(qs[:k], out[:k], 1)
				local += int64(k)
				for j := 0; j < k; j++ {
					if d := estimate(out[j]); d < best {
						best = d
					}
				}
			}
			minD[i] = best
		}
		evaluated.Add(local)
	})
	return evaluated.Load()
}

// Membership stamps: member[v] carries one bit per set v belongs to.
const (
	inA uint8 = 1 << iota
	inB
)

// candidates is one set in expansion order — ascending by (key₁, id),
// infinite keys (nodes unreachable from the landmark) last — with every
// landmark's keys gathered alongside, so the expansion reads them
// sequentially.
type candidates struct {
	nodes []int32
	key1  []graph.Weight
	aux   [graph.MaxAuxLandmarks][]graph.Weight
}

func sortedCandidates(lm *graph.Landmarks, set []int32) candidates {
	c := candidates{nodes: slices.Clone(set)}
	slices.SortFunc(c.nodes, func(p, q int32) int {
		if byKey := cmp.Compare(lm.Key1[p], lm.Key1[q]); byKey != 0 {
			return byKey
		}
		return cmp.Compare(p, q)
	})
	m := len(set)
	keys := make([]graph.Weight, (1+len(lm.Aux))*m)
	c.key1 = keys[:m]
	for i, v := range c.nodes {
		c.key1[i] = lm.Key1[v]
	}
	for j, key := range lm.Aux {
		c.aux[j] = keys[(j+1)*m : (j+2)*m]
		for i, v := range c.nodes {
			c.aux[j][i] = key[v]
		}
	}
	return c
}

// prunedMins is the landmark-ordered, bound-pruned evaluation described
// in the package comment: minD[i] becomes the min over the candidate set
// y (whose membership bit is yBit) of the estimate from x[i]. It produces
// exactly the minima of naiveMins.
func prunedMins(inst scheme.Instance, x []int32, y candidates, lm *graph.Landmarks, member []uint8, yBit uint8, minD []float64, workers int) int64 {
	var evaluated atomic.Int64
	scheme.FanOut(len(x), workers, func(lo, hi int) {
		var qs [evalChunk]oracle.Query
		var out [evalChunk]oracle.Answer
		var local int64
		for i := lo; i < hi; i++ {
			xi := x[i]
			if member[xi]&yBit != 0 {
				minD[i] = 0 // xi ∈ Y: the self match wins outright
				continue
			}
			ka1 := lm.Key1[xi]
			var kaux [graph.MaxAuxLandmarks]graph.Weight
			for j, key := range lm.Aux {
				kaux[j] = key[xi]
			}
			// First candidate position: the smallest key₁ ≥ key₁(xi).
			// The two pointers expand outward from it, so candidates
			// arrive in nondecreasing key₁-bound order per side.
			up, _ := slices.BinarySearch(y.key1, ka1)
			down := up - 1
			best := math.Inf(1)
			// The flush size starts tiny and doubles: the first flush runs
			// with best = +Inf (nothing can be pruned yet), so it should
			// carry as few candidates as possible — they are the
			// nearest-by-key ones and set a tight best for everything
			// after.
			limit := 2
			for {
				k := 0
				for k < limit {
					lbUp, lbDown := math.Inf(1), math.Inf(1)
					if up < len(y.key1) {
						lbUp = lowerBound(ka1, y.key1[up])
					}
					if down >= 0 {
						lbDown = lowerBound(ka1, y.key1[down])
					}
					// A side whose key₁ bound reached the running best is
					// done: every remaining candidate on it bounds at
					// least as high.
					if lbUp >= best {
						up = len(y.key1)
						lbUp = math.Inf(1)
					}
					if lbDown >= best {
						down = -1
						lbDown = math.Inf(1)
					}
					if up >= len(y.key1) && down < 0 {
						break
					}
					var pick int
					if lbUp <= lbDown {
						pick = up
						up++
					} else {
						pick = down
						down--
					}
					// The auxiliary landmarks skip individual candidates
					// the expansion order cannot: key₁-equidistant nodes
					// on opposite sides of the graph have very different
					// auxiliary keys.
					skipped := false
					for j := range lm.Aux {
						if lowerBound(kaux[j], y.aux[j][pick]) >= best {
							skipped = true
							break
						}
					}
					if skipped {
						continue
					}
					qs[k] = oracle.Query{V: xi, S: y.nodes[pick]}
					k++
				}
				if k == 0 {
					break
				}
				inst.AnswerInto(qs[:k], out[:k], 1)
				local += int64(k)
				for j := 0; j < k; j++ {
					if d := estimate(out[j]); d < best {
						best = d
					}
				}
				if limit < evalChunk {
					limit *= 2
				}
			}
			minD[i] = best
		}
		evaluated.Add(local)
	})
	return evaluated.Load()
}

// lowerBound is the triangle-inequality bound on the true distance
// between nodes with landmark keys ka and kb: d(a, b) ≥ |ka − kb| when
// both are reachable from the landmark. With exactly one side
// unreachable the nodes lie in different components (the graph is
// undirected), so the distance — and any scheme estimate — is +Inf;
// with both unreachable nothing is known and the bound is 0.
func lowerBound(ka, kb graph.Weight) float64 {
	if ka == graph.Infinity || kb == graph.Infinity {
		if ka == kb {
			return 0
		}
		return math.Inf(1)
	}
	d := ka - kb
	if d < 0 {
		d = -d
	}
	return float64(d)
}

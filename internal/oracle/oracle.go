// Package oracle compiles PDE results into a flat, immutable distance
// oracle so heavy query traffic is served from indexed tables instead of
// rescanning every detection instance per call (§2.4: "distance queries
// answered from local tables").
//
// core.Result.Estimate walks all i_max+1 instance lists on every query —
// Õ(σ·i_max) per lookup. Compile performs that min-over-instances combine
// exactly once per (node, source) pair and lays the result out in
// CSR-style parallel arrays sorted by source id, so Estimate, Lookup and
// NextHop become a single binary search over one node's contiguous
// segment: O(log σ) with cache-friendly access. The compiled form is
// read-only after construction and therefore safe for any number of
// concurrent readers without locking (exercised under -race in tests).
//
// The combine is bit-identical to the legacy scan paths: the same
// float64(dist)·base products, the same "first instance with the strictly
// smallest value wins" tie-break, and the same σ-capped output-list
// membership. Property tests assert equality entry-for-entry across
// seeds and topologies; the scan paths stay in core as the correctness
// reference.
package oracle

import (
	"slices"
	"time"

	"pde/internal/core"
	"pde/internal/graph"
)

// Oracle is a compiled, read-only index over a *core.Result.
//
// Entries for node v occupy the half-open range off[v]..off[v+1] of the
// parallel arrays, sorted by source id; each entry already holds the best
// estimate over all instances.
type Oracle struct {
	n     int
	off   []int64
	srcs  []int32
	dists []float64
	vias  []int32
	insts []int32
	flags []uint8
	// inList marks entries that made the σ-capped output list Lists[v]
	// (Result.Lookup answers from that list; Result.Estimate from the
	// full union of instance lists).
	inList []bool
	// BuildTime is the wall time Compile spent.
	BuildTime time.Duration
}

// Compile flattens res into an Oracle. The input is not retained; the
// oracle is self-contained and immutable.
//
// Time is linear in the instance lists plus, per node, a sort of the
// source ids that survive deduplication (~σ of the σ·(i_max+1)
// candidates on a partial build).
func Compile(res *core.Result) *Oracle {
	start := time.Now()
	n := len(res.Lists)
	o := &Oracle{n: n, off: make([]int64, n+1)}

	seen := make([]int32, n) // seen[s] == v+1: s is in v's row, at slot[s]
	slot := make([]int32, n)
	var row []core.Estimate
	for v := 0; v < n; v++ {
		row = row[:0]
		// Ascending instances, replacing only on a strictly smaller
		// product: the first instance with the smallest value wins,
		// exactly as the legacy scan decides.
		for i, inst := range res.Instances {
			for _, e := range inst.Det.Lists[v] {
				c := core.Estimate{Dist: float64(e.Dist) * inst.Base, Src: e.Src, Via: e.Via, Instance: int32(i), Flag: e.Flag}
				if seen[e.Src] != int32(v)+1 {
					seen[e.Src] = int32(v) + 1
					slot[e.Src] = int32(len(row))
					row = append(row, c)
				} else if k := slot[e.Src]; c.Dist < row[k].Dist {
					row[k] = c
				}
			}
		}
		first := len(o.srcs)
		for _, c := range row {
			o.srcs = append(o.srcs, c.Src)
		}
		slices.Sort(o.srcs[first:])
		for k, s := range o.srcs[first:] {
			c := &row[slot[s]]
			o.dists = append(o.dists, c.Dist)
			o.vias = append(o.vias, c.Via)
			o.insts = append(o.insts, c.Instance)
			o.flags = append(o.flags, c.Flag)
			o.inList = append(o.inList, false)
			slot[s] = int32(k) // from here on: s's position in the sorted row
		}
		// Mark σ-capped output-list membership so Lookup answers match
		// Result.Lookup bit-for-bit.
		for _, e := range res.Lists[v] {
			if seen[e.Src] == int32(v)+1 {
				o.inList[first+int(slot[e.Src])] = true
			}
		}
		o.off[v+1] = int64(len(o.srcs))
	}
	o.BuildTime = time.Since(start)
	return o
}

// N returns the number of nodes the oracle serves.
func (o *Oracle) N() int { return o.n }

// Entries returns the total number of compiled (node, source) pairs.
func (o *Oracle) Entries() int { return len(o.srcs) }

// Bytes returns the memory footprint of the compiled arrays.
func (o *Oracle) Bytes() int64 {
	return int64(len(o.off))*8 +
		int64(len(o.srcs))*4 +
		int64(len(o.dists))*8 +
		int64(len(o.vias))*4 +
		int64(len(o.insts))*4 +
		int64(len(o.flags)) +
		int64(len(o.inList))
}

// find binary-searches node v's segment for source s and returns the
// entry index, or -1. Out-of-range v is a miss, not a panic: serving
// layers (internal/server) validate queries against one table snapshot
// but may answer them from a hot-swapped replacement with a different
// node count, and the contract there is "consistent with the snapshot
// that answered" — for a node the snapshot doesn't have, that answer is
// "not found".
//
//pde:hotpath
func (o *Oracle) find(v int, s int32) int64 {
	if v < 0 || v >= o.n {
		return -1
	}
	lo, hi := o.off[v], o.off[v+1]
	for lo < hi {
		mid := int64(uint64(lo+hi) >> 1)
		if o.srcs[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < o.off[v+1] && o.srcs[lo] == s {
		return lo
	}
	return -1
}

// at materializes entry k as a core.Estimate.
//
//pde:hotpath
func (o *Oracle) at(k int64) core.Estimate {
	return core.Estimate{
		Dist:     o.dists[k],
		Src:      o.srcs[k],
		Via:      o.vias[k],
		Instance: o.insts[k],
		Flag:     o.flags[k],
	}
}

// Estimate returns the combined estimate w̃d(v, s) with best instance and
// next hop — the indexed equivalent of core.Result.Estimate.
//
//pde:hotpath
func (o *Oracle) Estimate(v int, s int32) (core.Estimate, bool) {
	k := o.find(v, s)
	if k < 0 {
		return core.Estimate{}, false
	}
	return o.at(k), true
}

// Lookup returns v's σ-capped output-list entry for s, if present — the
// indexed equivalent of core.Result.Lookup.
func (o *Oracle) Lookup(v int, s int32) (core.Estimate, bool) {
	k := o.find(v, s)
	if k < 0 || !o.inList[k] {
		return core.Estimate{}, false
	}
	return o.at(k), true
}

// NextHop returns the neighbor to which v forwards a packet destined for
// s, with core.Router's terminal semantics: v == s answers (v, true) and
// means "delivered".
func (o *Oracle) NextHop(v int, s int32) (int, bool) {
	if v == int(s) {
		return v, true
	}
	k := o.find(v, s)
	if k < 0 || o.vias[k] < 0 {
		return -1, false
	}
	return int(o.vias[k]), true
}

// Router wraps the already-compiled oracle in a core.Router over g, so a
// caller serving both point queries and routes pays Compile once. res must
// be the result this oracle was compiled from.
func (o *Oracle) Router(g *graph.Graph, res *core.Result) *core.Router {
	return core.NewRouterWith(g, res, o)
}

// Package oracle compiles PDE results into a flat, immutable distance
// oracle, and every served answer comes from it: estimates, next hops and
// Corollary 3.5's stateless routes are read from indexed tables (§2.4:
// "distance queries answered from local tables").
//
// Compile performs the min-over-instances combine w̃d(v,s) = min_i
// b(i)·hd_i(v,s) exactly once per (node, source) pair and lays the result
// out in CSR-style parallel arrays sorted by source id, so Estimate and
// NextHop are a single binary search over one node's contiguous segment
// (a direct index when the row holds every source): O(log σ) with
// cache-friendly access, where a scan of the instance lists costs
// Õ(σ·i_max) per query. The compiled form is read-only after
// construction and therefore safe for any number of concurrent readers
// without locking (exercised under -race in tests).
//
// A row is a function of the node's instance lists alone. So after a
// delta core.Build, Update copies the segment of every row the build did
// not move from the previous oracle and compiles only the rest, in the
// same row loop as Compile; its output is Compile's.
//
// The combine uses the same float64(dist)·base products and the same
// "first instance with the strictly smallest value wins" tie-break as that
// scan. The scan itself lives in this package's tests as the differential
// reference: Estimate, NextHop and Route agree with it on every (v, s).
package oracle

import (
	"fmt"
	"slices"

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
}

// Compile flattens res into an Oracle. The input is not retained; the
// oracle is self-contained and immutable.
//
// Time is linear in the instance lists plus, per node, a sort of the
// source ids that survive deduplication (~σ of the σ·(i_max+1)
// candidates on a partial build).
func Compile(res *core.Result) *Oracle { return compile(nil, res) }

// Update compiles res like Compile, but copies the CSR segment of every
// row res did not move (core.Result.RowMoved) from prev instead of
// recompiling it. prev must be the compilation of the result res was
// built from — the two are served together, so they pair up; an oracle
// for another node count, or a nil one, compiles every row. The output
// is identical to Compile(res), and prev is only read.
func Update(prev *Oracle, res *core.Result) *Oracle {
	if prev != nil && prev.n != len(res.Lists) {
		prev = nil
	}
	return compile(prev, res)
}

// compile is the one row loop behind Compile and Update: a row that prev
// holds unchanged is copied, any other is compiled from the instance
// lists.
func compile(prev *Oracle, res *core.Result) *Oracle {
	n := len(res.Lists)
	o := &Oracle{n: n, off: make([]int64, n+1)}
	if prev != nil && len(prev.srcs) > 0 {
		// Few rows move on an update, so prev's size, with some room, is
		// the size to expect.
		k := len(prev.srcs) + len(prev.srcs)/8
		o.srcs, o.dists, o.vias = make([]int32, 0, k), make([]float64, 0, k), make([]int32, 0, k)
		o.insts, o.flags = make([]int32, 0, k), make([]uint8, 0, k)
	}

	seen := make([]int32, n) // seen[s] == v+1: s is in v's row, at slot[s]
	slot := make([]int32, n)
	var row []core.Estimate
	for v := 0; v < n; v++ {
		if prev != nil && !res.RowMoved(v) {
			// Copy the whole run of unmoved rows from v at once; prev's
			// segments for it are contiguous.
			w := v + 1
			for w < n && !res.RowMoved(w) {
				w++
			}
			lo, hi := prev.off[v], prev.off[w]
			shift := int64(len(o.srcs)) - lo
			o.srcs = append(o.srcs, prev.srcs[lo:hi]...)
			o.dists = append(o.dists, prev.dists[lo:hi]...)
			o.vias = append(o.vias, prev.vias[lo:hi]...)
			o.insts = append(o.insts, prev.insts[lo:hi]...)
			o.flags = append(o.flags, prev.flags[lo:hi]...)
			for x := v; x < w; x++ {
				o.off[x+1] = prev.off[x+1] + shift
			}
			v = w - 1 // the loop's v++ goes on at row w
			continue
		}
		row = row[:0]
		// Ascending instances, replacing only on a strictly smaller
		// product: the first instance with the smallest value wins,
		// exactly as the scan reference in this package's tests decides.
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
		for _, s := range o.srcs[first:] {
			c := &row[slot[s]]
			o.dists = append(o.dists, c.Dist)
			o.vias = append(o.vias, c.Via)
			o.insts = append(o.insts, c.Instance)
			o.flags = append(o.flags, c.Flag)
		}
		o.off[v+1] = int64(len(o.srcs))
	}
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
		int64(len(o.flags))
}

// dense reports whether node v's row holds every source: its ids are
// unique, sorted and in [0, n), so a row of length n is exactly 0..n-1
// and the entry for s sits at off[v]+s. APSP tables are dense in every
// row.
//
//pde:hotpath
func (o *Oracle) dense(v int) bool { return o.off[v+1]-o.off[v] == int64(o.n) }

// denseAt returns the entry for s in the dense row starting at lo, or -1
// when s is outside [0, n).
//
//pde:hotpath
func (o *Oracle) denseAt(lo int64, s int32) int64 {
	if uint32(s) < uint32(o.n) {
		return lo + int64(s)
	}
	return -1
}

// find returns the entry index of source s in node v's segment, or -1:
// a direct index into a dense row, a binary search otherwise.
// Out-of-range v is a miss, not a panic: serving layers
// (internal/server) validate queries against one table snapshot but may
// answer them from a hot-swapped replacement with a different node
// count, and the contract there is "consistent with the snapshot that
// answered" — for a node the snapshot doesn't have, that answer is "not
// found".
//
//pde:hotpath
func (o *Oracle) find(v int, s int32) int64 {
	if v < 0 || v >= o.n {
		return -1
	}
	lo, hi := o.off[v], o.off[v+1]
	if o.dense(v) {
		return o.denseAt(lo, s)
	}
	return o.search(lo, hi, s)
}

// search binary-searches the sorted row srcs[lo:hi) for s and returns
// its entry index, or -1.
//
//pde:hotpath
func (o *Oracle) search(lo, hi int64, s int32) int64 {
	end := hi
	for lo < hi {
		mid := int64(uint64(lo+hi) >> 1)
		if o.srcs[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && o.srcs[lo] == s {
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

// Estimate returns the combined estimate w̃d(v, s) with its best instance
// and next hop, if any instance detected s at v.
//
//pde:hotpath
func (o *Oracle) Estimate(v int, s int32) (core.Estimate, bool) {
	k := o.find(v, s)
	if k < 0 {
		return core.Estimate{}, false
	}
	return o.at(k), true
}

// Dist returns Estimate(v, s)'s distance alone and reads only the source
// and distance columns, for callers that need no next hop (set
// distances, the compact hierarchy's level estimates).
//
//pde:hotpath
func (o *Oracle) Dist(v int, s int32) (float64, bool) {
	k := o.find(v, s)
	if k < 0 {
		return 0, false
	}
	return o.dists[k], true
}

// NextHop returns the neighbor to which v forwards a packet destined for
// s, and whether v has an entry for s at all.
//
// Terminal semantics: when v == s the packet has arrived and NextHop
// returns (v, true). A returned next hop equal to the queried node always
// and only means "delivered"; a caller driving its own forwarding loop
// stops there rather than look up the (nonexistent) self-edge.
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

// Route forwards a packet from v to s over g, the graph the oracle's
// result was built on, each hop decided by NextHop alone: Corollary 3.5's
// stateless stretch-(1+ε) routing. The estimate falls strictly at every
// hop (Lemma 4.4), so a route never repeats a node and g.N() steps bound
// it. A node with no entry for s, or a longer walk, is reported as an
// error; neither happens for s in v's output list.
func (o *Oracle) Route(g *graph.Graph, v int, s int32) (*core.Route, error) {
	rt, err := core.Walk(g, v, int(s), g.N(), func(cur int) (int, error) {
		next, ok := o.NextHop(cur, s)
		if !ok {
			// core:, like Walk's own reports: /v1/route serves this text for
			// an undeliverable pair, whichever check stopped the walk.
			return 0, fmt.Errorf("core: node %d has no table entry for %d (route from %d)", cur, s, v)
		}
		return next, nil
	})
	if err != nil {
		return nil, err
	}
	return &rt, nil
}

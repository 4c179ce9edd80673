// Package oracle serves PDE results as a flat, immutable distance
// oracle, and every served answer comes from it: estimates, next hops and
// Corollary 3.5's stateless routes are read from indexed tables (§2.4:
// "distance queries answered from local tables").
//
// The tables are the result's own: core.Build computes the
// min-over-instances w̃d(v,s) = min_i b(i)·hd_i(v,s) once per (node,
// source) pair and lays it out in pages of CSR-style parallel arrays
// sorted by source id (core.Table, core.Page). Compile shares them and
// performs no combine, so Estimate and NextHop are a page lookup and a
// single binary search over one node's contiguous segment (a direct
// index when the row holds every source):
// O(log σ) with cache-friendly access, where a scan of the instance lists
// costs Õ(σ·i_max) per query. The tables are read-only and therefore safe
// for any number of concurrent readers without locking (exercised under
// -race in tests).
//
// The table's entries use the same float64(dist)·base products and the
// same "first instance with the strictly smallest value wins" tie-break
// as that scan. The scan itself lives in this package's tests as the
// differential reference: Estimate, NextHop and Route agree with it on
// every (v, s).
package oracle

import (
	"fmt"

	"pde/internal/core"
	"pde/internal/graph"
)

// Oracle is a read-only index over a *core.Result's table.
//
// The table is paged: node v's entries occupy Off[r]..Off[r+1] of the
// parallel columns of page v>>core.PageShift, r = v&(core.PageRows-1),
// sorted by source id; each entry already holds the best estimate over
// all instances.
type Oracle struct {
	n       int
	pages   []*core.Page
	entries int
}

// Compile returns the oracle over res's table, which it shares: it keeps
// the page index of res and nothing else. res must come from core.Build
// (core.Run and core.Patch are Build), which lays the table out; both are
// immutable.
func Compile(res *core.Result) *Oracle {
	return &Oracle{n: len(res.Lists), pages: res.Table.Pages, entries: res.Table.Entries()}
}

// N returns the number of nodes the oracle serves.
func (o *Oracle) N() int { return o.n }

// Entries returns the total number of compiled (node, source) pairs.
func (o *Oracle) Entries() int { return o.entries }

// Bytes returns the memory footprint of the table in the units of a flat
// layout: 8 bytes of offset per node and one more, and 21 per entry
// (source, distance, next hop, instance, flag). The page headers — the
// index and one 192-byte header per core.PageRows nodes — are not
// counted.
func (o *Oracle) Bytes() int64 {
	return int64(o.n+1)*8 + int64(o.entries)*(4+8+4+4+1)
}

// row returns node v's page and the bounds of its entries there; v must
// be in [0, n).
//
//pde:hotpath
func (o *Oracle) row(v int) (pg *core.Page, lo, hi int32) {
	pg = o.pages[v>>core.PageShift]
	r := v & (core.PageRows - 1)
	return pg, pg.Off[r], pg.Off[r+1]
}

// dense reports whether a row spanning lo..hi holds every source: its
// ids are unique, sorted and in [0, n), so a row of length n is exactly
// 0..n-1 and the entry for s sits at lo+s. APSP tables are dense in
// every row.
//
//pde:hotpath
func (o *Oracle) dense(lo, hi int32) bool { return int(hi-lo) == o.n }

// denseAt returns the entry for s in the dense row starting at lo, or -1
// when s is outside [0, n).
//
//pde:hotpath
func (o *Oracle) denseAt(lo int32, s int32) int32 {
	if uint32(s) < uint32(o.n) {
		return lo + s
	}
	return -1
}

// find returns v's page and the index of source s's entry there, or -1:
// a direct index into a dense row, a binary search otherwise.
// Out-of-range v is a miss, not a panic: serving layers
// (internal/server) validate queries against one table snapshot but may
// answer them from a hot-swapped replacement with a different node
// count, and the contract there is "consistent with the snapshot that
// answered" — for a node the snapshot doesn't have, that answer is "not
// found".
//
//pde:hotpath
func (o *Oracle) find(v int, s int32) (*core.Page, int32) {
	if v < 0 || v >= o.n {
		return nil, -1
	}
	pg, lo, hi := o.row(v)
	if o.dense(lo, hi) {
		return pg, o.denseAt(lo, s)
	}
	return pg, search(pg, lo, hi, s)
}

// search binary-searches the sorted row pg.Srcs[lo:hi) for s and returns
// its entry index, or -1.
//
//pde:hotpath
func search(pg *core.Page, lo, hi int32, s int32) int32 {
	srcs := pg.Srcs[:hi]
	end := hi
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if srcs[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && srcs[lo] == s {
		return lo
	}
	return -1
}

// at materializes entry k of page pg as a core.Estimate.
//
//pde:hotpath
func at(pg *core.Page, k int32) core.Estimate {
	return core.Estimate{
		Dist:     pg.Dists[k],
		Src:      pg.Srcs[k],
		Via:      pg.Vias[k],
		Instance: pg.Insts[k],
		Flag:     pg.Flags[k],
	}
}

// Estimate returns the combined estimate w̃d(v, s) with its best instance
// and next hop, if any instance detected s at v.
//
//pde:hotpath
func (o *Oracle) Estimate(v int, s int32) (core.Estimate, bool) {
	pg, k := o.find(v, s)
	if k < 0 {
		return core.Estimate{}, false
	}
	return at(pg, k), true
}

// Dist returns Estimate(v, s)'s distance alone and reads only the source
// and distance columns, for callers that need no next hop (set
// distances, the compact hierarchy's level estimates).
//
//pde:hotpath
func (o *Oracle) Dist(v int, s int32) (float64, bool) {
	pg, k := o.find(v, s)
	if k < 0 {
		return 0, false
	}
	return pg.Dists[k], true
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
	pg, k := o.find(v, s)
	if k < 0 || pg.Vias[k] < 0 {
		return -1, false
	}
	return int(pg.Vias[k]), true
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

package detection

import (
	"slices"

	"pde/internal/congest"
	"pde/internal/graph"
)

// repairSlack is how far past its old list radius the halo of a node
// reaches. A length that rises by δ raises a list radius by at most δ (the
// old σ-th path is still there, δ longer), so one unit covers the ±1
// nudges that move a clamped length by at most one; a larger rise that
// pushes a radius past it makes the instance run in full.
const repairSlack = 1

// Repaired is a Result that Repair computed from a previous one.
type Repaired struct {
	*Result
	// Region holds, in ascending order, the nodes whose lists were
	// computed again; every other node's list is the previous result's.
	Region []int32
	// Halo is the number of nodes its sub-run ran on.
	Halo int
}

// repairScratch is the Arena's storage for Repair, reused from call to
// call: per node of the graph a distance and a position in the halo, the
// search heap, and the region and halo lists.
type repairScratch struct {
	mark   []uint32 // mark[v] == gen: dist[v] belongs to this search
	gen    uint32
	dist   []int32
	index  []int32 // v's position in the halo, or -1
	reach  []int32 // for a region node's position in region: how far its halo reaches
	heap   []heapItem
	region []int32
	halo   []int32
	seeds  []heapItem
	src    []bool // the sub-run's IsSource, by halo position
}

type heapItem struct{ d, v int32 }

// grow sizes the per-node arrays for n nodes.
func (s *repairScratch) grow(n int) {
	if len(s.mark) >= n {
		return
	}
	s.mark, s.dist = make([]uint32, n), make([]int32, n)
	s.index = make([]int32, n)
	for v := range s.index {
		s.index[v] = -1
	}
	s.gen = 0
}

// search runs Dijkstra from the seeds (node, start distance) over the edges
// whose length under p is at most p.H, and calls settle on every node in
// order of distance while that distance is at most bound.
func (s *repairScratch) search(g *graph.Graph, seeds []heapItem, p *Params, bound int32, settle func(v, d int32)) {
	s.gen++
	h := s.heap[:0]
	relax := func(v, d int32) {
		if s.mark[v] == s.gen && s.dist[v] <= d {
			return
		}
		s.mark[v], s.dist[v] = s.gen, d
		h = append(h, heapItem{d, v})
		for i := len(h) - 1; i > 0; {
			up := (i - 1) / 2
			if h[up].d <= h[i].d {
				break
			}
			h[up], h[i] = h[i], h[up]
			i = up
		}
	}
	for _, it := range seeds {
		relax(it.v, it.d)
	}
	for len(h) > 0 {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].d < h[c].d {
				c++
			}
			if h[i].d <= h[c].d {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		if top.d != s.dist[top.v] {
			continue // a stale entry: v was settled closer
		}
		if top.d > bound {
			break
		}
		settle(top.v, top.d)
		for _, e := range g.Neighbors(int(top.v)) {
			if l := p.Length(e.W); l <= int32(p.H) {
				relax(int32(e.To), top.d+l)
			}
		}
	}
	s.heap = h[:0]
}

// listRadius is how far node v's list in r reaches: the distance of its
// σ-th entry, or the hop bound when it holds fewer than σ.
func listRadius(r *Result, v, sigma int, hPrime int32) int32 {
	keys, _ := r.row(v)
	if len(keys) < sigma {
		return hPrime
	}
	return int32(keys[sigma-1] >> 32)
}

// Repair computes the run of p on g from prev, the result of a run of the
// same parameters on a graph of g's structure, by redoing only the nodes
// whose lists can have moved. moved holds the edges whose length under p
// differs between the two graphs; every other edge has the same length on
// both. It returns a Repaired with a nil Result, and no error, when the
// instance should be run in full instead.
//
// A node's list is its σ smallest (dist, src) keys within h, and a key
// (d, s) at v — the round it arrives in, and so its Via, included —
// depends only on the units within d of v. So v's list can move only if
// a moved edge lies within v's old list radius r(v) under the smaller of
// the two lengths: the region, found by one search from the endpoints of
// those edges. Both endpoints of a moved edge start at distance 0, so no
// shortest path from them crosses one, and the search reads the lengths
// on g alone. Each region node's new list is computed
// by the unchanged engine on the subgraph induced by the halo, every node
// within r(v)+repairSlack of some region node v under the new lengths,
// relabelled in ascending id order so that inbox order, cell ownership and
// the (dist, src) tie-break are the full run's. Cutting the graph there
// drops only keys whose dist at v is beyond r(v)+repairSlack, so a region
// node whose new list reaches beyond that makes the instance run in full.
// Every other node keeps prev's list.
//
// The Result's Metrics count the sub-run alone, under prev's budget, and
// so do its SelfEmits (zero outside the halo).
// p schedules LexSmallest, as core.Build sets it unless Delays are given;
// Delays and a bandwidth limit (the halo's ids are shorter than g's, so
// its messages are too) fall back to a full run.
func (a *Arena) Repair(g *graph.Graph, p Params, b int, prev *Result, moved []graph.Reweight) (Repaired, error) {
	if p.Delays != nil || b != 0 || p.Sigma == 0 {
		return Repaired{}, nil
	}
	n := g.N()
	s := &a.rs
	s.grow(n)
	hPrime := int32(p.H)
	sigma := p.Sigma

	// The region: nodes within their old radius of a moved edge.
	s.seeds = s.seeds[:0]
	for _, e := range moved {
		s.seeds = append(s.seeds, heapItem{0, e.U}, heapItem{0, e.V})
	}
	// No radius exceeds the hop bound, so the first list that reaches it
	// ends the scan.
	var maxR int32
	for v := 0; v < n && maxR < hPrime; v++ {
		maxR = max(maxR, listRadius(prev, v, sigma, hPrime))
	}
	s.region = s.region[:0]
	s.search(g, s.seeds, &p, maxR, func(v, d int32) {
		if d <= listRadius(prev, int(v), sigma, hPrime) {
			s.region = append(s.region, v)
		}
	})
	region := slices.Clone(s.region)
	slices.Sort(region)

	var met *congest.Metrics
	s.halo = s.halo[:0]
	defer s.unindex()
	if len(region) > 0 {
		// The halo: a search from every region node v started at
		// -(its reach), so that a node settles at ≤ 0 when it is within
		// some v's reach.
		s.seeds, s.reach = s.seeds[:0], s.reach[:0]
		for _, v := range region {
			r := listRadius(prev, int(v), sigma, hPrime) + repairSlack
			s.reach = append(s.reach, r)
			s.seeds = append(s.seeds, heapItem{-r, v})
		}
		s.search(g, s.seeds, &p, 0, func(v, _ int32) {
			s.halo = append(s.halo, v)
		})
		slices.Sort(s.halo)
		var err error
		if met, err = a.subRun(g, p, prev.Metrics.BudgetRounds); err != nil {
			return Repaired{}, err
		}
		// A region node whose sub-run list reaches beyond its halo may
		// have missed keys.
		for k, v := range region {
			st := &a.states[s.index[v]]
			r := hPrime
			if l := st.list(&st.self); len(l) == sigma {
				r = keyDist(l[sigma-1])
			}
			if r > s.reach[k] {
				return Repaired{}, nil
			}
		}
	} else {
		// An empty region runs nothing.
		met = &congest.Metrics{BudgetRounds: prev.Metrics.BudgetRounds}
	}

	// The region's lists from the sub-run, ids mapped back; every other
	// list is prev's. Only a page on which the sub-run changed some region
	// list is laid out again, in columns of its own; every other page is
	// prev's, shared, whatever region lists it holds. A page prev
	// shares may lie in the slabs of the cold run that built it, which
	// then stay live while any of its pages is served: a chain of repairs
	// keeps at most those slabs of an earlier generation.
	res := &Result{
		Pages:     slices.Clone(prev.Pages),
		Flags:     p.Flags,
		SelfEmits: make([]int32, n),
		Metrics:   met,
	}
	for rest := region; len(rest) > 0; {
		pi := int(rest[0] >> PageShift)
		k := 1
		for k < len(rest) && int(rest[k]>>PageShift) == pi {
			k++
		}
		if !a.sameRows(prev, rest[:k]) {
			res.Pages[pi] = a.relay(prev.Pages[pi], rest[:k])
		}
		rest = rest[k:]
	}
	for j, v := range s.halo {
		res.SelfEmits[v] = a.states[j].self.sentCnt
	}
	return Repaired{Result: res, Region: region, Halo: len(s.halo)}, nil
}

// subRow returns region node v's list as the sub-run left it, in the
// halo's ids: its keys and Vias.
func (a *Arena) subRow(v int32) ([]uint64, []int32) {
	st := &a.states[a.rs.index[v]]
	l := st.list(&st.self)
	return l, st.via[:len(l)]
}

// mapped returns a sub-run key and Via as a Page stores them, with the
// halo's ids mapped back to g's.
func (s *repairScratch) mapped(k uint64, via int32) (uint64, int32) {
	if via >= 0 {
		via = s.halo[via]
	}
	return uint64(keyDist(k))<<32 | uint64(s.halo[keySrc(k)]), via
}

// sameRows reports whether the sub-run left every node of rows (region
// nodes, all on one page) the list prev holds.
func (a *Arena) sameRows(prev *Result, rows []int32) bool {
	for _, v := range rows {
		keys, vias := prev.row(int(v))
		sub, subVias := a.subRow(v)
		if len(sub) != len(keys) {
			return false
		}
		for i, k := range sub {
			if mk, mv := a.rs.mapped(k, subVias[i]); mk != keys[i] || mv != vias[i] {
				return false
			}
		}
	}
	return true
}

// relay lays out again the page old in columns of its own, with the rows
// of the region nodes rows (all on it, ascending) from the sub-run and
// every other row from old.
func (a *Arena) relay(old Page, rows []int32) Page {
	lo := int(rows[0]) &^ (PageRows - 1)
	total := int(old.Off[PageRows])
	for _, v := range rows {
		sub, _ := a.subRow(v)
		r := int(v) - lo
		total += len(sub) - int(old.Off[r+1]-old.Off[r])
	}
	ints := make([]int32, PageRows+1+total)
	pg := Page{Off: (*[PageRows + 1]int32)(ints), Keys: make([]uint64, 0, total), Vias: ints[PageRows+1 : PageRows+1]}
	for r := range PageRows {
		if len(rows) > 0 && int(rows[0]) == lo+r {
			sub, subVias := a.subRow(rows[0])
			for i, k := range sub {
				mk, mv := a.rs.mapped(k, subVias[i])
				pg.Keys, pg.Vias = append(pg.Keys, mk), append(pg.Vias, mv)
			}
			rows = rows[1:]
		} else {
			pg.Keys = append(pg.Keys, old.Keys[old.Off[r]:old.Off[r+1]]...)
			pg.Vias = append(pg.Vias, old.Vias[old.Off[r]:old.Off[r+1]]...)
		}
		pg.Off[r+1] = int32(len(pg.Keys))
	}
	return pg
}

// unindex clears the halo's positions.
func (s *repairScratch) unindex() {
	for _, v := range s.halo {
		s.index[v] = -1
	}
}

// subRun runs p within the given budget on the subgraph induced by the
// halo (s.halo, ascending), numbering s.index by halo position. The
// arena's node states hold the outcome, by halo position. It runs without
// Flags: no run reads them but the Result's List.
func (a *Arena) subRun(g *graph.Graph, p Params, budget int) (*congest.Metrics, error) {
	s := &a.rs
	for j, v := range s.halo {
		s.index[v] = int32(j)
	}
	// The subgraph keeps g's weights, so the sub-run derives g's lengths.
	sg := g.Induced(s.halo, s.index, func(e graph.Edge) bool { return p.Length(e.W) <= int32(p.H) })
	sp := p
	s.src = resize(s.src, len(s.halo))
	sp.IsSource = s.src
	sp.Flags = nil
	for j, v := range s.halo {
		sp.IsSource[j] = p.IsSource[v]
	}
	return a.exec(sg, sp, 0, budget)
}

package core

import (
	"cmp"
	"slices"

	"pde/internal/detection"
)

// A Table holds its rows in pages of PageRows consecutive nodes: row v is
// row v&(PageRows-1) of Pages[v>>PageShift]. They are the pages the
// instances' detection lists are held in.
const (
	PageShift = detection.PageShift
	PageRows  = 1 << PageShift
)

// Table is the by-source layout of every node's row, one page per
// PageRows consecutive nodes; each entry holds the best estimate over all
// instances. Cold and delta builds lay it out alike, page by page. A page
// is immutable, so a delta build lays out again only the pages that hold
// a moved row and shares every other page with prev by pointer: the
// tables of two generations share what both serve, and a generation
// keeps nothing of another that it does not serve itself.
type Table struct {
	Pages   []*Page
	entries int
}

// Page holds the rows of PageRows consecutive nodes: the entries of its
// row r occupy Off[r]..Off[r+1] of the five parallel columns, sorted by
// source id. The last page of a table whose n is not a multiple of
// PageRows ends in empty rows.
type Page struct {
	Off   [PageRows + 1]int32
	Srcs  []int32
	Dists []float64
	Vias  []int32
	Insts []int32
	Flags []uint8
}

// Entries returns the number of (node, source) entries in the table.
func (t *Table) Entries() int { return t.entries }

// movedRows marks the nodes at which some re-detected instance's list
// differs from the same instance's list in prev, and lists them in
// ascending order. Instances reused by pointer are equal by construction
// and are not compared, and a repaired instance is compared only in its
// region, and there only on the pages it did not share with prev: every
// other list of it is prev's. Equal depth means equal bases,
// b(i) = (1+ε)^i for the same ε.
func movedRows(insts, prev []*Instance, todo []int, reps []detection.Repaired, n int) (marks []bool, rows []int32) {
	marks = make([]bool, n)
	mark := func(v int32, cur, old *detection.Result) {
		if !marks[v] && !cur.SameList(int(v), old) {
			marks[v] = true
			rows = append(rows, v)
		}
	}
	for _, i := range todo {
		cur, old := insts[i].Det, prev[i].Det
		if reps[i].Result != nil {
			for _, v := range reps[i].Region {
				mark(v, cur, old)
			}
			continue
		}
		for v := range marks {
			mark(int32(v), cur, old)
		}
	}
	slices.Sort(rows)
	return marks, rows
}

// layRows computes w̃d(v,s) = min_i b(i)·hd_i(v,s) for every source some
// instance detected at v, lays row v out by source id in its table page,
// and outputs its σ smallest by (Dist, Src) as Lists[v], one allocation
// per row. Ascending instances replace an entry only on a strictly
// smaller product, so the lowest instance wins a tie.
//
// With a nil prev every row is computed. Otherwise only the rows in
// moved (ascending) are: a row is a function of v's instance lists
// alone, so every other row is prev's. Its list is shared, a page with no
// moved row is shared by pointer, and a page with one is laid out again,
// its unmoved rows copied from prev's page, so that sharing pins nothing
// else of prev.
func layRows(insts []*Instance, n, sigma int, prev *Result, moved []int32) (Table, [][]Estimate) {
	rp := rowPass{insts: insts, sigma: sigma, seen: make([]int32, n), slot: make([]int32, n), det: make([]detection.Entry, 0, min(sigma, n))}
	t := Table{Pages: make([]*Page, (n+PageRows-1)>>PageShift)}
	lists := make([][]Estimate, n)
	if prev == nil {
		for p := range t.Pages {
			t.Pages[p] = rp.page(p, n, lists, nil, nil)
			t.entries += len(t.Pages[p].Srcs)
		}
		return t, lists
	}
	copy(t.Pages, prev.Table.Pages)
	copy(lists, prev.Lists)
	t.entries = prev.Table.entries
	for len(moved) > 0 {
		p := int(moved[0] >> PageShift)
		k := 1
		for k < len(moved) && int(moved[k]>>PageShift) == p {
			k++
		}
		old := t.Pages[p]
		t.Pages[p] = rp.page(p, n, lists, old, moved[:k])
		t.entries += len(t.Pages[p].Srcs) - len(old.Srcs)
		moved = moved[k:]
	}
	return t, lists
}

// rowPass is layRows' scratch: the stamps that merge a row's candidates
// (seen[s] == v+1: s is in v's row, at slot[s]), the row being merged,
// and the columns of the page being laid out.
type rowPass struct {
	insts      []*Instance
	sigma      int
	seen, slot []int32
	row        []Estimate
	det        []detection.Entry
	col        Page
}

// page lays out page p. With a nil old it computes every row; otherwise
// it computes the rows in moved (ascending, all on page p) and copies the
// others from old. The columns are allocated at their length.
func (rp *rowPass) page(p, n int, lists [][]Estimate, old *Page, moved []int32) *Page {
	c := &rp.col
	c.Srcs, c.Dists, c.Vias, c.Insts, c.Flags = c.Srcs[:0], c.Dists[:0], c.Vias[:0], c.Insts[:0], c.Flags[:0]
	if old != nil {
		// A few moved rows leave the page near old's size: grow the
		// columns once rather than by doubling.
		k := len(old.Srcs) + len(old.Srcs)/4
		c.Srcs, c.Dists, c.Vias = slices.Grow(c.Srcs, k), slices.Grow(c.Dists, k), slices.Grow(c.Vias, k)
		c.Insts, c.Flags = slices.Grow(c.Insts, k), slices.Grow(c.Flags, k)
	}
	pg := &Page{}
	lo := p << PageShift
	hi := min(lo+PageRows, n)
	for v := lo; v < hi; v++ {
		r := v - lo
		if old != nil && (len(moved) == 0 || int(moved[0]) != v) {
			a, b := old.Off[r], old.Off[r+1]
			c.Srcs = append(c.Srcs, old.Srcs[a:b]...)
			c.Dists = append(c.Dists, old.Dists[a:b]...)
			c.Vias = append(c.Vias, old.Vias[a:b]...)
			c.Insts = append(c.Insts, old.Insts[a:b]...)
			c.Flags = append(c.Flags, old.Flags[a:b]...)
		} else {
			if old != nil {
				moved = moved[1:]
			}
			lists[v] = rp.lay(v)
		}
		pg.Off[r+1] = int32(len(c.Srcs))
	}
	for r := hi - lo + 1; r <= PageRows; r++ {
		pg.Off[r] = pg.Off[hi-lo]
	}
	// The three int32 columns share one allocation.
	k := len(c.Srcs)
	ids := make([]int32, 0, 3*k)
	ids = append(append(append(ids, c.Srcs...), c.Vias...), c.Insts...)
	pg.Srcs, pg.Vias, pg.Insts = ids[:k:k], ids[k:2*k:2*k], ids[2*k:]
	pg.Dists, pg.Flags = exact(c.Dists), exact(c.Flags)
	return pg
}

// lay merges node v's row from every instance's list at v, appends it to
// the page's columns by source id and returns its σ smallest by (Dist,
// Src) as v's list.
func (rp *rowPass) lay(v int) []Estimate {
	c := &rp.col
	row := rp.row[:0]
	for i, inst := range rp.insts {
		rp.det = inst.Det.List(v, rp.det)
		for _, e := range rp.det {
			est := Estimate{Dist: float64(e.Dist) * inst.Base, Src: e.Src, Via: e.Via, Instance: int32(i), Flag: e.Flag}
			if rp.seen[e.Src] != int32(v)+1 {
				rp.seen[e.Src] = int32(v) + 1
				rp.slot[e.Src] = int32(len(row))
				row = append(row, est)
			} else if k := rp.slot[e.Src]; est.Dist < row[k].Dist {
				row[k] = est
			}
		}
	}
	first := len(c.Srcs)
	for _, est := range row {
		c.Srcs = append(c.Srcs, est.Src)
	}
	slices.Sort(c.Srcs[first:])
	for _, s := range c.Srcs[first:] {
		est := &row[rp.slot[s]]
		c.Dists = append(c.Dists, est.Dist)
		c.Vias = append(c.Vias, est.Via)
		c.Insts = append(c.Insts, est.Instance)
		c.Flags = append(c.Flags, est.Flag)
	}
	slices.SortFunc(row, func(a, b Estimate) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Src, b.Src)
	})
	rp.row = row
	top := row[:min(rp.sigma, len(row))]
	return append(make([]Estimate, 0, len(top)), top...)
}

// exact copies s into a slice of its own, allocated at its length (an
// empty one allocates nothing).
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

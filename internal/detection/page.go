package detection

import (
	"slices"

	"pde/internal/congest"
)

// Entry is one detected source at a node, as Result.List reads it.
type Entry struct {
	// Dist is the virtual hop distance to the source (its weighted
	// meaning is Dist·b(i) on instance G_i).
	Dist int32
	// Src is the source node.
	Src int32
	// Via is the real neighbor from which the best pair arrived
	// (the next hop toward Src), or -1 for the node's own entry.
	Via int32
	// Flag carries the source's metadata bits, Params.Flags[Src].
	Flag uint8
}

// A Result holds its lists in pages of PageRows consecutive nodes: node
// v's list is row v&(PageRows-1) of Pages[v>>PageShift].
const (
	PageShift = 4
	PageRows  = 1 << PageShift
)

// Page holds the lists of PageRows consecutive nodes: row r's entries
// occupy Off[r]..Off[r+1] of the two columns, 12 bytes an entry. Keys[k]
// packs entry k's (Dist, Src) as Dist<<32 | Src, so that a row sorted by
// key is sorted by (Dist, Src); Vias[k] is its Via. The last page of a
// result whose n is not a multiple of PageRows ends in empty rows.
//
// A page is immutable. Repair hands a page it did not lay out again to
// the repaired Result as it is, and its columns are then shared with
// prev's: two pages are the same page exactly when their Off is.
type Page struct {
	Off  *[PageRows + 1]int32
	Keys []uint64
	Vias []int32
}

// Result is the output of one detection run.
type Result struct {
	// Pages holds every node's output list, up to σ entries sorted by
	// (Dist, Src); List reads one.
	Pages []Page
	// Flags is the run's Params.Flags, nil when it had none: an entry's
	// flag is its source's, so no entry stores it.
	Flags []uint8
	// SelfEmits[v] counts the announcements made by v's own unit: the
	// "broadcasts" of Lemma 3.4.
	SelfEmits []int32
	// Metrics is the CONGEST execution accounting; its BudgetRounds is
	// the round budget the run was given.
	Metrics *congest.Metrics
}

// List returns node v's list, in buf's storage when it is large enough.
func (r *Result) List(v int, buf []Entry) []Entry {
	keys, vias := r.row(v)
	buf = buf[:0]
	for k, key := range keys {
		e := Entry{Dist: int32(key >> 32), Src: int32(uint32(key)), Via: vias[k]}
		if r.Flags != nil {
			e.Flag = r.Flags[e.Src]
		}
		buf = append(buf, e)
	}
	return buf
}

// SameList reports whether node v's list is the same in r and in o,
// results of runs with the same Flags. A page the two share holds the
// same lists, so v's is then not compared.
func (r *Result) SameList(v int, o *Result) bool {
	if r.Pages[v>>PageShift].Off == o.Pages[v>>PageShift].Off {
		return true
	}
	keys, vias := r.row(v)
	oKeys, oVias := o.row(v)
	return slices.Equal(keys, oKeys) && slices.Equal(vias, oVias)
}

// row returns node v's row of its page: the packed keys and the Vias.
func (r *Result) row(v int) ([]uint64, []int32) {
	pg, i := &r.Pages[v>>PageShift], v&(PageRows-1)
	a, b := pg.Off[i], pg.Off[i+1]
	return pg.Keys[a:b], pg.Vias[a:b]
}

// pageKey is a unit's key k as a Page stores it: Dist<<32 | Src.
func pageKey(k uint64) uint64 { return uint64(keyDist(k))<<32 | uint64(keySrc(k)) }

package oracle

import (
	"fmt"
	"runtime"
	"sync"

	"pde/internal/core"
)

// Query is one point lookup: node V asking about source S. Both ids are
// int32 so a Query is exactly the wire record of the serving layer's
// binary batch codec (internal/server) — no width conversion between a
// decoded batch body and the oracle call.
//
//pde:wire size=8
type Query struct {
	V int32
	S int32
}

// InRange reports whether both ids lie in [0, n): the one bounds check
// ids from outside the process pass before they may index the tables.
// Every transport applies it against the snapshot it answers from; the
// rtc and compact backends repeat it so a bad id is a miss, not a panic.
//
//pde:hotpath
func (q Query) InRange(n int32) bool {
	return q.V >= 0 && q.V < n && q.S >= 0 && q.S < n
}

// Answer is the result of one Query: the PDEA wire record (a fixed-width
// core.Estimate plus the ok byte).
//
//pde:wire size=22
type Answer struct {
	Est core.Estimate
	OK  bool
}

// AnswerAll serves qs sequentially into out. It allocates nothing, so
// tight serving loops can reuse buffers across batches.
//
// out must have exactly len(qs) entries; anything else is a caller bug
// (a torn batch would silently leave stale answers in the tail), so
// AnswerAll panics instead of truncating.
//
//pde:hotpath
func (o *Oracle) AnswerAll(qs []Query, out []Answer) {
	if len(out) != len(qs) {
		panic(fmt.Sprintf("oracle: AnswerAll called with %d queries but %d answer slots", len(qs), len(out)))
	}
	for i, q := range qs {
		out[i].Est, out[i].OK = o.Estimate(int(q.V), q.S)
	}
}

// AnswerSorted serves qs sequentially into out, exploiting (V, S)-
// ascending query order: within one v-row the lookup gallops forward
// from the previous hit instead of binary-searching the whole row, so a
// sorted batch costs O(log gap) per query instead of O(log row) — the
// answering half of the wire layer's frame-local locality sort. Answers
// are bit-identical to AnswerAll's; order is a speed lever, never a
// semantic one. Input that regresses out of sorted order is detected
// per query and answered correctly from a full-row search, it just
// forfeits the gallop. out shares AnswerAll's exact-length contract.
//
//pde:hotpath
func (o *Oracle) AnswerSorted(qs []Query, out []Answer) {
	if len(out) != len(qs) {
		panic(fmt.Sprintf("oracle: AnswerSorted called with %d queries but %d answer slots", len(qs), len(out)))
	}
	for i := 0; i < len(qs); {
		v := int(qs[i].V)
		if v < 0 || v >= o.n {
			out[i].Est, out[i].OK = core.Estimate{}, false
			i++
			continue
		}
		lo, hi := o.off[v], o.off[v+1]
		if hi-lo == int64(o.n) {
			// Dense row: srcs holds every source 0..n-1 in order (they
			// are unique, sorted, and in [0, n)), so the entry for s sits
			// at lo+s — no search at all. APSP-style tables are dense in
			// every row, which turns the whole batch into a gather.
			for ; i < len(qs) && int(qs[i].V) == v; i++ {
				if s := qs[i].S; uint32(s) < uint32(o.n) {
					out[i].Est, out[i].OK = o.at(lo+int64(s)), true
				} else {
					out[i].Est, out[i].OK = core.Estimate{}, false
				}
			}
			continue
		}
		k := lo
		prevS := int32(-1 << 31)
		for ; i < len(qs) && int(qs[i].V) == v; i++ {
			s := qs[i].S
			if s < prevS {
				k = lo // order regressed: stay correct, restart the walk
			}
			prevS = s
			k = gallopLowerBound(o.srcs, k, hi, s)
			if k < hi && o.srcs[k] == s {
				out[i].Est, out[i].OK = o.at(k), true
			} else {
				out[i].Est, out[i].OK = core.Estimate{}, false
			}
		}
	}
}

// gallopLowerBound returns the first index in srcs[lo:hi) holding a
// value >= s, probing exponentially from lo before binary-searching the
// final window — O(log distance-from-lo), which sorted batches make
// much smaller than O(log (hi-lo)).
//
//pde:hotpath
func gallopLowerBound(srcs []int32, lo, hi int64, s int32) int64 {
	if lo >= hi || srcs[lo] >= s {
		return lo
	}
	// Invariant: srcs[l] < s. Double the window until it crosses s or
	// the row ends, then binary-search inside it.
	step := int64(1)
	l := lo
	h := lo + step
	for h < hi && srcs[h] < s {
		l = h
		step <<= 1
		h = l + step
	}
	if h > hi {
		h = hi
	}
	l++
	for l < h {
		mid := int64(uint64(l+h) >> 1)
		if srcs[mid] < s {
			l = mid + 1
		} else {
			h = mid
		}
	}
	return l
}

// AnswerInto serves qs across workers goroutines (GOMAXPROCS when
// workers <= 0) into out, which must have exactly len(qs) entries (it
// shares AnswerAll's length contract). The oracle is immutable, so the
// workers share it without synchronization; only the disjoint output
// chunks are written. Callers that batch continuously reuse out across
// calls.
func (o *Oracle) AnswerInto(qs []Query, out []Answer, workers int) {
	if len(out) != len(qs) {
		panic(fmt.Sprintf("oracle: AnswerInto called with %d queries but %d answer slots", len(qs), len(out)))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(qs) < 2*workers {
		o.AnswerAll(qs, out)
		return
	}
	var wg sync.WaitGroup
	chunk := (len(qs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(qs))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			o.AnswerAll(qs[lo:hi], out[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

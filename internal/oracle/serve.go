package oracle

import (
	"fmt"

	"pde/internal/core"
	"pde/internal/par"
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

// AnswerSorted serves qs sequentially into out, exploiting queries
// grouped into runs of equal V (S in any order inside a run): a run
// resolves node v's page and row bounds once and answers every query of
// it from that row — a dense row by direct index, any other by binary search —
// while the row stays in cache. This is the answering half of the wire
// layer's frame-local row grouping. Answers are bit-identical to
// AnswerAll's for any input; grouping is a speed lever, never a
// semantic one. out shares AnswerAll's exact-length contract.
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
		pg, lo, hi := o.row(v)
		dense := o.dense(lo, hi)
		for ; i < len(qs) && int(qs[i].V) == v; i++ {
			var k int32
			if dense {
				k = o.denseAt(lo, qs[i].S)
			} else {
				k = search(pg, lo, hi, qs[i].S)
			}
			if k >= 0 {
				out[i].Est, out[i].OK = at(pg, k), true
			} else {
				out[i].Est, out[i].OK = core.Estimate{}, false
			}
		}
	}
}

// AnswerInto serves qs into out, cut into par.Chunks across workers
// goroutines (GOMAXPROCS when workers <= 0); out must have exactly
// len(qs) entries (it shares AnswerAll's length contract). The oracle is
// immutable, so the workers share it without synchronization; only the
// disjoint output chunks are written. Callers that batch continuously
// reuse out across calls. A batch that resolves to one worker is
// answered inline, before the closure par.Chunks takes is built: it
// escapes through par's go statement.
func (o *Oracle) AnswerInto(qs []Query, out []Answer, workers int) {
	if len(out) != len(qs) {
		panic(fmt.Sprintf("oracle: AnswerInto called with %d queries but %d answer slots", len(qs), len(out)))
	}
	if par.Width(workers, len(qs)) <= 1 {
		o.AnswerAll(qs, out)
		return
	}
	par.Chunks(workers, len(qs), func(lo, hi int) { o.AnswerAll(qs[lo:hi], out[lo:hi]) })
}

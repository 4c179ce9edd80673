package wire

import (
	"fmt"
	"math/bits"
	"net"

	"pde/internal/oracle"
)

// Backend is the daemon behind a PDE2 listener: it hands every accepted
// connection its Handler. internal/server's *Server satisfies it, so the
// wire listener serves exactly the same slots, stats and hot-swap
// semantics as the HTTP endpoints.
type Backend interface {
	WireHandler() Handler
}

// Config tunes a wire listener. The zero value gets the default.
type Config struct {
	// MaxBatch caps the queries one frame may carry (default 65536,
	// matching the HTTP layer).
	MaxBatch int
}

// Server is the daemon's PDE2 endpoint: a Listener whose connections
// answer frames from a Backend's shards.
type Server = Listener

// Serve starts accepting on ln and returns immediately.
func Serve(ln net.Listener, be Backend, cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	return Listen(ln, cfg.MaxBatch, be.WireHandler)
}

// sortThreshold selects the frame-local locality sort from the frame's
// size: a frame with at least this many queries is answered in table
// order — ascending (v, s) walks the oracle's CSR arrays near-sequentially
// instead of jumping per query — and scattered back to wire order on
// encode; below it the sort costs more than the locality buys.
const sortThreshold = 1024

// InOrder is how a Handler that answers from tables of n nodes reads the
// batch: it range-checks every id against [0, n) and returns the queries
// in the order to answer them — Out[i] and Hops[i] then belong to qs[i].
// sorted reports that the order is (v, s)-ascending (the locality sort
// ran) rather than wire order, so a sorted-aware answer path applies;
// answers are per-query independent, so either order is bit-invisible to
// the client.
//
//pde:hotpath
func (b *Batch) InOrder(n int32) (qs []oracle.Query, sorted bool, refusal *RemoteError) {
	for i, q := range b.Qs {
		if !q.InRange(n) {
			return nil, false, outOfRange(i, q, n)
		}
	}
	count := len(b.Qs)
	if count < sortThreshold {
		return b.Qs, false, nil
	}
	b.ensureSort()
	// Keys pack (v, s) into the fewest bits n allows, so the radix sort
	// runs the fewest passes.
	sBits := bits.Len32(uint32(n - 1))
	ord := b.ord[:count]
	for i, q := range b.Qs {
		ord[i] = sortRec{key: uint64(uint32(q.V))<<sBits | uint64(uint32(q.S)), idx: int32(i)}
	}
	b.perm = radixSortRecs(ord, b.ord2[:count], 2*sBits)
	qs = b.sorted[:count]
	for i, rec := range b.perm {
		qs[i] = b.Qs[rec.idx]
	}
	return qs, true, nil
}

// ensureSort sizes the locality-sort scratch for the batch. Like every
// buffer growth it stays out of the //pde:hotpath functions.
func (b *Batch) ensureSort() {
	if count := len(b.Qs); cap(b.sorted) < count {
		b.sorted = make([]oracle.Query, count)
		b.ord = make([]sortRec, count)
		b.ord2 = make([]sortRec, count)
	}
}

// outOfRange reports an out-of-range query id. Split from the hot path
// so InOrder itself stays allocation-free.
func outOfRange(i int, q oracle.Query, n int32) *RemoteError {
	return &RemoteError{Code: ErrCodeOutOfRange,
		Message: fmt.Sprintf("query %d: (v=%d, s=%d) outside [0, %d)", i, q.V, q.S, n)}
}

// radixBits is the LSD radix digit width: 2048 counters stay
// L1-resident while a tightly packed (v, s) key sorts in
// ceil(keyBits/11) passes — two for any shard up to ~2000 nodes.
const radixBits = 11

// radixSortRecs stable-sorts ord by key ascending with an LSD counting
// sort over radixBits-wide digits, ping-ponging between ord and scratch,
// and returns the slice holding the sorted records (which may be
// scratch). Digits the whole frame shares are skipped. A comparison
// sort here costs ~count·log(count) indirect calls per frame, which at
// serving batch sizes outweighs the locality win the sort exists to
// buy; this is O(passes·count) with no calls at all.
//
//pde:hotpath
func radixSortRecs(ord, scratch []sortRec, keyBits int) []sortRec {
	const mask = 1<<radixBits - 1
	var cnt [1 << radixBits]int32
	for shift := 0; shift < keyBits; shift += radixBits {
		for i := range cnt {
			cnt[i] = 0
		}
		for i := range ord {
			cnt[(ord[i].key>>shift)&mask]++
		}
		if int(cnt[(ord[0].key>>shift)&mask]) == len(ord) {
			continue
		}
		sum := int32(0)
		for i := range cnt {
			c := cnt[i]
			cnt[i] = sum
			sum += c
		}
		for i := range ord {
			d := (ord[i].key >> shift) & mask
			scratch[cnt[d]] = ord[i]
			cnt[d]++
		}
		ord, scratch = scratch, ord
	}
	return ord
}

// DeriveHop applies the next-hop convention to one answered query: v == s
// is terminal delivery (core.Router.NextHop), otherwise the estimate's
// via is the hop, and a pair with no table entry or no via has none. This
// is the only definition; HTTP /v1/nexthop and PDE2 NextHop frames both
// answer through it.
//
//pde:hotpath
func DeriveHop(q oracle.Query, a oracle.Answer) Hop {
	switch {
	case q.V == q.S:
		return Hop{Next: q.V, OK: true}
	case a.OK && a.Est.Via >= 0:
		return Hop{Next: a.Est.Via, OK: true}
	}
	return Hop{Next: -1, OK: false}
}

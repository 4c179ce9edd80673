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

// sortThreshold selects row grouping from the frame's size: a frame with
// at least this many queries is answered one table row at a time — all
// of node v's queries together, so v's row stays in cache while they
// are answered — and scattered back to wire order on encode; below it
// the grouping costs more than the locality buys.
const sortThreshold = 512

// InOrder is how a Handler that answers from tables of n nodes reads the
// batch: it range-checks every id against [0, n) and returns the queries
// in the order to answer them — Out[i] and Hops[i] then belong to qs[i].
// sorted reports that the queries come grouped into runs of equal V
// (row grouping ran) rather than in wire order, so a row-aware answer
// path applies; answers are per-query independent, so either order is
// bit-invisible to the client.
//
//pde:hotpath
func (b *Batch) InOrder(n int32) (qs []oracle.Query, sorted bool, refusal *RemoteError) {
	if len(b.Qs) >= sortThreshold {
		return b.groupRows(n)
	}
	for i, q := range b.Qs {
		if !q.InRange(n) {
			return nil, false, outOfRange(i, q, n)
		}
	}
	return b.Qs, false, nil
}

// radixBits is the width of one digit of the row id: 2048 counters stay
// L1-resident, and a shard of up to 2048 nodes groups in one placement.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// groupRows range-checks the batch and groups it by row id with a stable
// counting sort on V: one pass checks and counts v's low digit, one
// placement writes the grouped queries and each one's wire position
// into perm, and a shard of more than 2048 nodes takes one more stable
// placement per further digit of v. S is never a key; the answer side
// needs runs of equal V only.
//
//pde:hotpath
func (b *Batch) groupRows(n int32) (qs []oracle.Query, sorted bool, refusal *RemoteError) {
	var cnt [1 << radixBits]int32
	for i, q := range b.Qs {
		if !q.InRange(n) {
			return nil, false, outOfRange(i, q, n)
		}
		cnt[q.V&radixMask]++
	}
	count := len(b.Qs)
	b.ensureGroup(n)
	qs, perm := b.rows[0][:count], b.perms[0][:count]
	prefixSum(&cnt)
	for i, q := range b.Qs {
		d := q.V & radixMask
		qs[cnt[d]], perm[cnt[d]] = q, int32(i)
		cnt[d]++
	}
	for shift := radixBits; shift < bits.Len32(uint32(n-1)); shift += radixBits {
		clear(cnt[:])
		for _, q := range qs {
			cnt[q.V>>shift&radixMask]++
		}
		if int(cnt[qs[0].V>>shift&radixMask]) == count {
			continue // the whole frame shares this digit
		}
		prefixSum(&cnt)
		dst, dperm := b.rows[1][:count], b.perms[1][:count]
		for i, q := range qs {
			d := q.V >> shift & radixMask
			dst[cnt[d]], dperm[cnt[d]] = q, perm[i]
			cnt[d]++
		}
		b.rows[0], b.rows[1] = b.rows[1], b.rows[0]
		b.perms[0], b.perms[1] = b.perms[1], b.perms[0]
		qs, perm = dst, dperm
	}
	b.perm = perm
	return qs, true, nil
}

// prefixSum turns digit counts into each digit's first slot.
//
//pde:hotpath
func prefixSum(cnt *[1 << radixBits]int32) {
	sum := int32(0)
	for i, c := range cnt {
		cnt[i] = sum
		sum += c
	}
}

// ensureGroup sizes the row-grouping scratch for the batch and for a
// shard of n nodes: the second half of each pair is needed only when v
// has more than one digit. Like every buffer growth it stays out of the
// //pde:hotpath functions.
func (b *Batch) ensureGroup(n int32) {
	halves := 1
	if bits.Len32(uint32(n-1)) > radixBits {
		halves = 2
	}
	for h := range halves {
		if count := len(b.Qs); cap(b.rows[h]) < count {
			b.rows[h] = make([]oracle.Query, count)
			b.perms[h] = make([]int32, count)
		}
	}
}

// outOfRange reports an out-of-range query id. Split from the hot path
// so InOrder and groupRows stay allocation-free.
func outOfRange(i int, q oracle.Query, n int32) *RemoteError {
	return &RemoteError{Code: ErrCodeOutOfRange,
		Message: fmt.Sprintf("query %d: (v=%d, s=%d) outside [0, %d)", i, q.V, q.S, n)}
}

// DeriveHop applies the next-hop convention to one answered query: v == s
// is terminal delivery (oracle.Oracle.NextHop), otherwise the estimate's
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

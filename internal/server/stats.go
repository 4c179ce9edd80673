package server

import (
	"sync/atomic"

	"pde/internal/wire"
)

// shardStats are the per-shard serving counters behind /v1/stats. They
// live on the slot, not the shard, so a hot-swap resets nothing: traffic
// history spans table generations while the fingerprint field identifies
// the generation currently serving.
type shardStats struct {
	estimateQueries atomic.Int64 // point lookups served by /v1/estimate
	nexthopQueries  atomic.Int64 // point lookups served by /v1/nexthop
	routeQueries    atomic.Int64 // route expansions served by /v1/route
	setdistPairs    atomic.Int64 // candidate pairs served by /v1/setdist

	// HTTP point-query request shape: batches is AnswerInto calls,
	// batchedRequests the requests they served (one each: nothing is
	// coalesced), batchedQueries the point lookups they carried, maxBatch
	// the largest single request.
	batches         atomic.Int64
	batchedRequests atomic.Int64
	batchedQueries  atomic.Int64
	maxBatch        atomic.Int64

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// PDE2 wire-path share of the traffic: frames answered and the point
	// lookups they carried. The per-endpoint counters above already
	// include these queries (the tally is transport-agnostic); this pair
	// breaks out how much of it arrived over raw TCP. Like every counter
	// in this struct they are atomic — wire connections observe stats
	// from one goroutine per connection with no handler serialization,
	// and /v1/stats reads concurrently with all of them.
	wireFrames  atomic.Int64
	wireQueries atomic.Int64

	builds         atomic.Int64 // table generations built (1 = initial build)
	lastSwapUnixNS atomic.Int64

	// Incremental-update accounting: updates is every /v1/update batch
	// applied, deltaUpdates the subset served by the patch path (the rest
	// fell back to a full rebuild).
	updates          atomic.Int64
	deltaUpdates     atomic.Int64
	lastUpdateUnixNS atomic.Int64
}

func (st *shardStats) recordBatch(requests, queries int) {
	st.batches.Add(1)
	st.batchedRequests.Add(int64(requests))
	st.batchedQueries.Add(int64(queries))
	for {
		cur := st.maxBatch.Load()
		if int64(queries) <= cur || st.maxBatch.CompareAndSwap(cur, int64(queries)) {
			return
		}
	}
}

// countPoint adds served point lookups to the per-endpoint tally. The
// tally is transport-agnostic: the HTTP handler and PDE2 frames both
// count here, keyed by the frame type that names the query kind.
//
//pde:hotpath
func (st *shardStats) countPoint(kind wire.FrameType, queries int) {
	switch kind {
	case wire.FrameEstimate:
		st.estimateQueries.Add(int64(queries))
	case wire.FrameNextHop:
		st.nexthopQueries.Add(int64(queries))
	}
}

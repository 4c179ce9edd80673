package server

import (
	"math"
	"net/http"

	"pde/internal/setdist"
)

// SetDistRequest is the JSON body of /v1/setdist: two member sets over
// the shard's node ids. Naive switches off the pruned evaluation (the
// debugging/differential mode; answers are identical, only slower).
type SetDistRequest struct {
	Shard string  `json:"shard"`
	A     []int32 `json:"a"`
	B     []int32 `json:"b"`
	Naive bool    `json:"naive,omitempty"`
}

// WireAggregates is one direction's aggregates on the JSON wire. JSON
// cannot carry IEEE infinities, so Finite flags whether the float fields
// are meaningful; when false (the direction has unreachable members) the
// three distance fields are -1 and the true value is +Inf. The binary
// codec carries the infinities directly.
type WireAggregates struct {
	Chamfer     float64 `json:"chamfer"`
	Hausdorff   float64 `json:"hausdorff"`
	MeanMin     float64 `json:"mean_min"`
	Finite      bool    `json:"finite"`
	Members     int32   `json:"members"`
	Unreachable int32   `json:"unreachable"`
}

// SetDistResponse is the /v1/setdist JSON answer: both directed
// aggregate sets, the symmetric Hausdorff distance (with its own finite
// flag, same -1 convention as WireAggregates), and the pruning
// accounting, stamped with the fingerprint of the table generation that
// answered.
type SetDistResponse struct {
	Shard           string         `json:"shard"`
	Fingerprint     string         `json:"fingerprint"`
	AB              WireAggregates `json:"ab"`
	BA              WireAggregates `json:"ba"`
	Hausdorff       float64        `json:"hausdorff"`
	HausdorffFinite bool           `json:"hausdorff_finite"`
	Pairs           int64          `json:"pairs"`
	Evaluated       int64          `json:"evaluated"`
	Pruned          int64          `json:"pruned"`
}

func wireAggregates(a setdist.Aggregates) WireAggregates {
	wa := WireAggregates{
		Chamfer: a.Chamfer, Hausdorff: a.Hausdorff, MeanMin: a.MeanMin,
		Finite: a.Finite(), Members: a.Members, Unreachable: a.Unreachable,
	}
	if !wa.Finite {
		wa.Chamfer, wa.Hausdorff, wa.MeanMin = -1, -1, -1
	}
	return wa
}

// setDistResponse converts an engine result to the JSON wire shape (also
// the form Client.SetDist returns for binary answers, post-decode).
func setDistResponse(shard, fp string, res *setdist.Result) *SetDistResponse {
	out := &SetDistResponse{
		Shard:       shard,
		Fingerprint: fp,
		AB:          wireAggregates(res.AB),
		BA:          wireAggregates(res.BA),
		Hausdorff:   res.Hausdorff,
		Pairs:       res.Pairs,
		Evaluated:   res.Evaluated,
		Pruned:      res.Pruned,
	}
	out.HausdorffFinite = !math.IsInf(res.Hausdorff, 1)
	if !out.HausdorffFinite {
		out.Hausdorff = -1
	}
	return out
}

// handleSetDist serves POST /v1/setdist in both encodings. Binary
// requests carry the PDSQ frame with ?shard= (and optional ?naive=1) in
// the URL and get the PDSA frame back; JSON requests carry
// SetDistRequest and get SetDistResponse. Either way the whole
// evaluation runs against one table snapshot and the response is stamped
// with that generation's fingerprint.
func (s *Server) handleSetDist(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodPost) {
		return
	}
	binary := isBinary(r)
	var shardName string
	var a, b []int32
	var naive bool
	if binary {
		name, body, ok := s.readBinary(w, r, int64(12+4*(2*s.cfg.MaxBatch+1)), "set sizes exceed the %d-member limit")
		if !ok {
			return
		}
		// A body without a length (chunked) was cut at the cap, so its
		// header's counts, not its length, say whether it was too large.
		if countA, countB, ok := setDistCounts(body); ok && max(countA, countB) > s.cfg.MaxBatch {
			WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "set carries %d members, limit is %d", max(countA, countB), s.cfg.MaxBatch)
			return
		}
		var err error
		if a, b, err = decodeSetDistQuery(body); err != nil {
			WriteError(w, http.StatusBadRequest, "bad_request", "binary set-distance request: %v", err)
			return
		}
		shardName, naive = name, r.URL.Query().Get("naive") == "1"
	} else {
		var req SetDistRequest
		if !decodeJSON(w, r, &req, s.jsonBatchLimit()) {
			return
		}
		shardName, a, b, naive = req.Shard, req.A, req.B, req.Naive
	}
	sl, ok := s.slotFor(w, shardName)
	if !ok {
		return
	}
	if len(a) == 0 || len(b) == 0 {
		WriteError(w, http.StatusBadRequest, "empty_batch", "set-distance needs non-empty sets (|A|=%d, |B|=%d)", len(a), len(b))
		return
	}
	if len(a) > s.cfg.MaxBatch || len(b) > s.cfg.MaxBatch {
		WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "set carries %d members, limit is %d", max(len(a), len(b)), s.cfg.MaxBatch)
		return
	}
	// One snapshot answers the whole evaluation — the landmark keys, the
	// estimates and the stamped fingerprint all come from the same table
	// generation even if a hot-swap lands mid-request. A member is one id,
	// so it is passed twice and the message skips the copy.
	sh := sl.load()
	n := sh.NodeCount()
	member := func(v int32) (int32, int32) { return v, v }
	if !inRange(w, a, n, member, "a[%d] = %d outside [0, %[4]d)") || !inRange(w, b, n, member, "b[%d] = %d outside [0, %[4]d)") {
		return
	}
	res, err := setdist.Eval(sh.inst, a, b, setdist.Options{Naive: naive})
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", "set-distance evaluation: %v", err)
		return
	}
	// The stats unit is candidate pairs (2·|A|·|B|), the setdist analogue
	// of the point-lookup count: what a naive client would have paid in
	// /v1/estimate queries.
	sl.stats.setdistPairs.Add(res.Pairs)
	if binary {
		writeBinary(w, sl.name, sh.fp, encodeSetDistAnswer(res))
		return
	}
	WriteJSON(w, setDistResponse(sl.name, sh.fp, res))
}

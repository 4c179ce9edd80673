package server

import (
	"io"
	"math"
	"net/http"
	"strings"

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
	if !requirePost(w, r) {
		return
	}
	binary := isBinary(r)
	var shardName string
	var a, b []int32
	var naive bool
	if binary {
		shardName = r.URL.Query().Get("shard")
		if shardName == "" {
			writeError(w, http.StatusBadRequest, "bad_request", "binary batches name the shard in the ?shard= query parameter")
			return
		}
		naive = r.URL.Query().Get("naive") == "1"
		limit := int64(12 + 4*(2*s.cfg.MaxBatch+1))
		var body []byte
		var err error
		if cl := r.ContentLength; cl >= 0 && cl <= limit {
			body = make([]byte, cl)
			_, err = io.ReadFull(r.Body, body)
		} else if cl > limit {
			writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "set sizes exceed the %d-member limit", s.cfg.MaxBatch)
			return
		} else {
			body, err = io.ReadAll(io.LimitReader(r.Body, limit))
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
			return
		}
		a, b, err = DecodeSetDistQuery(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "binary set-distance request: %v", err)
			return
		}
	} else {
		var req SetDistRequest
		if !decodeJSON(w, r, &req, s.jsonBatchLimit()) {
			return
		}
		shardName, a, b, naive = req.Shard, req.A, req.B, req.Naive
	}
	sl, ok := s.slots[shardName]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_shard", "no shard named %q (have %s)", shardName, strings.Join(s.names, ", "))
		return
	}
	if len(a) == 0 || len(b) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", "set-distance needs non-empty sets (|A|=%d, |B|=%d)", len(a), len(b))
		return
	}
	if len(a) > s.cfg.MaxBatch || len(b) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "set carries %d members, limit is %d", max(len(a), len(b)), s.cfg.MaxBatch)
		return
	}
	// One snapshot answers the whole evaluation — the landmark keys, the
	// estimates and the stamped fingerprint all come from the same table
	// generation even if a hot-swap lands mid-request.
	sh := sl.load()
	n := int32(sh.g.N())
	for i, v := range a {
		if v < 0 || v >= n {
			writeError(w, http.StatusBadRequest, "out_of_range", "a[%d] = %d outside [0, %d)", i, v, n)
			return
		}
	}
	for i, v := range b {
		if v < 0 || v >= n {
			writeError(w, http.StatusBadRequest, "out_of_range", "b[%d] = %d outside [0, %d)", i, v, n)
			return
		}
	}
	res, err := setdist.Eval(sh.inst, a, b, setdist.Options{Naive: naive})
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "set-distance evaluation: %v", err)
		return
	}
	// The stats unit is candidate pairs (2·|A|·|B|), the setdist analogue
	// of the point-lookup count: what a naive client would have paid in
	// /v1/estimate queries.
	sl.stats.setdistPairs.Add(res.Pairs)
	if binary {
		writeBinary(w, sl.name, sh.fp, EncodeSetDistAnswer(res))
		return
	}
	writeJSON(w, setDistResponse(sl.name, sh.fp, res))
}

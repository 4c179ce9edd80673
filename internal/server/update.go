package server

import (
	"net/http"
	"time"

	"pde/internal/graph"
	"pde/internal/scheme"
)

// WireChange is one edge mutation in a /v1/update batch: op is
// "reweight", "insert" or "delete"; u and v name the endpoints; w is the
// new weight (>= 1, required for reweight and insert, ignored for
// delete). A batch may touch each edge at most once.
type WireChange struct {
	Op string       `json:"op"`
	U  int          `json:"u"`
	V  int          `json:"v"`
	W  graph.Weight `json:"w,omitempty"`
}

// UpdateRequest is the admin churn body: the shard to mutate plus the
// edge changes to apply as one atomic batch. Verify additionally
// rebuilds the scheme from scratch on the updated graph and refuses to
// publish unless the patched tables are fingerprint-identical — the
// correctness contract, paid for on demand.
type UpdateRequest struct {
	Shard   string       `json:"shard"`
	Changes []WireChange `json:"changes"`
	Verify  bool         `json:"verify,omitempty"`
}

// UpdateResponse reports one applied churn batch: the generation swap
// (old/new fingerprint), the update's path and reuse (scheme.UpdateStats,
// whose keys it carries inline), and the batch's shape. UpdateNS runs
// from the request decoded to the new generation published: changes
// applied, build, verify, digest, swap.
type UpdateResponse struct {
	Shard          string `json:"shard"`
	OldFingerprint string `json:"old_fingerprint"`
	NewFingerprint string `json:"new_fingerprint"`
	Changed        bool   `json:"changed"`
	scheme.UpdateStats
	Reweights       int   `json:"reweights"`
	Inserts         int   `json:"inserts"`
	Deletes         int   `json:"deletes"`
	TopologyChanged bool  `json:"topology_changed"`
	Verified        bool  `json:"verified"`
	UpdateNS        int64 `json:"update_ns"`
	N               int   `json:"n"`
	M               int   `json:"m"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !RequireMethod(w, r, http.MethodPost) || !decodeJSON(w, r, &req, s.jsonBatchLimit()) {
		return
	}
	sl, ok := s.slotFor(w, req.Shard)
	if !ok {
		return
	}
	if len(req.Changes) == 0 {
		WriteError(w, http.StatusBadRequest, "empty_batch", "update carries no changes")
		return
	}
	if len(req.Changes) > s.cfg.MaxBatch {
		WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "update carries %d changes, limit is %d", len(req.Changes), s.cfg.MaxBatch)
		return
	}
	changes := make([]graph.Change, len(req.Changes))
	for i, c := range req.Changes {
		op, err := graph.ParseChangeOp(c.Op)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad_request", "change %d: %v", i, err)
			return
		}
		changes[i] = graph.Change{Op: op, U: c.U, V: c.V, W: c.W}
	}

	// Serialize with rebuilds: queries keep flowing against the current
	// tables for the whole update and only the final pointer swap is
	// atomic.
	sl.buildMu.Lock()
	defer sl.buildMu.Unlock()

	cur := sl.load()
	began := time.Now()
	g2, sum, err := cur.g.ApplyChanges(changes)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", "applying changes: %v", err)
		return
	}
	// A weight-only batch keeps the edge set (ApplyChanges validated that
	// and w >= 1), so only inserts and deletes can disconnect.
	if sum.TopologyChanged && !g2.Connected() {
		WriteError(w, http.StatusBadRequest, "bad_request", "update would disconnect the graph; rejected")
		return
	}

	ni, st, err := scheme.Update(cur.inst, g2)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "update_failed", "updating shard %q: %v", req.Shard, err)
		return
	}
	if req.Verify {
		cold, err := scheme.BuildOn(cur.spec, g2)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "update_failed", "verify rebuild of shard %q: %v", req.Shard, err)
			return
		}
		if got, want := ni.Fingerprint(), cold.Fingerprint(); got != want {
			WriteError(w, http.StatusInternalServerError, "update_failed",
				"verify: %s tables fingerprint %016x != from-scratch build %016x; update not published", st.Path, got, want)
			return
		}
	}

	sh := instShard(ni)
	oldFP := sl.swap(sh)
	updateNS := time.Since(began).Nanoseconds()
	sl.mutated.Store(true)
	sl.stats.updates.Add(1)
	if st.Path == "delta" {
		sl.stats.deltaUpdates.Add(1)
	}
	sl.stats.lastUpdateUnixNS.Store(time.Now().UnixNano())

	WriteJSON(w, &UpdateResponse{
		Shard:           req.Shard,
		OldFingerprint:  oldFP,
		NewFingerprint:  sh.fp,
		Changed:         oldFP != sh.fp,
		UpdateStats:     st,
		Reweights:       sum.Reweights,
		Inserts:         sum.Inserts,
		Deletes:         sum.Deletes,
		TopologyChanged: sum.TopologyChanged,
		Verified:        req.Verify,
		UpdateNS:        updateNS,
		N:               sh.g.N(),
		M:               sh.g.M(),
	})
}

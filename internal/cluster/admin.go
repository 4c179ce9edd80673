package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"pde/internal/server"
)

// handleAdmin applies one /v1/rebuild or /v1/update to every replica of
// its shard and relays the primary's reply once all replicas agree on
// the new fingerprint. The request body goes to each daemon verbatim,
// through the same attempt queries use; only "shard" is read from it,
// and only "new_fingerprint" from each reply.
//
// Replicas are applied one at a time in placement order, under the
// shard's admin lock: rebuilds are CPU-bound, and replicas of one shard
// typically share a machine class, so racing them buys latency jitter,
// not throughput. A propagation that has begun runs to the end even if
// the client leaves — stopping between two replicas would split the
// fleet — and each replica stays bounded by the admin timeout.
//
// Deterministic rebuilds and delta patches both publish the fingerprint
// of a from-scratch build, so replicas that started identical land
// identical. Any replica that fails answers propagation_failed (a
// transport failure also marks it down; a daemon answering an error
// envelope is alive), and differing fingerprints answer
// replica_divergence: the coordinator must not report success for a
// divergent shard, even though the replicas that did swap cannot be
// unswapped, so the error names the survivors.
func (c *Coordinator) handleAdmin(w http.ResponseWriter, r *http.Request) {
	if !server.RequireMethod(w, r, http.MethodPost) {
		return
	}
	body, err := readBody(r.Body)
	if err != nil {
		server.WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "reading request: %v", err)
		return
	}
	var req struct {
		Shard string `json:"shard"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_request", "decoding request: %v", err)
		return
	}
	if req.Shard == "" {
		server.WriteError(w, http.StatusBadRequest, "bad_request", "request names no shard")
		return
	}
	reps := c.replicasFor(req.Shard)
	if len(reps) == 0 {
		server.WriteError(w, http.StatusNotFound, "unknown_shard", "no daemon serves shard %q (have %s)", req.Shard, strings.Join(c.Shards(), ", "))
		return
	}
	lock := c.adminLock(req.Shard)
	lock.Lock()
	defer lock.Unlock()

	ctx := context.WithoutCancel(r.Context())
	var primary *proxyResult
	var want string
	var failed, fps []string
	agree := true
	for _, b := range reps {
		res, err := c.attempt(ctx, b, c.policy.adminTimeout, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), body)
		if err != nil {
			b.markDown(err)
			failed = append(failed, fmt.Sprintf("%s: %v", b.url, err))
			continue
		}
		if res.status != http.StatusOK {
			failed = append(failed, fmt.Sprintf("%s: HTTP %d: %s", b.url, res.status, truncateForError(res.body)))
			continue
		}
		var reply struct {
			NewFingerprint string `json:"new_fingerprint"`
		}
		if err := json.Unmarshal(res.body, &reply); err != nil {
			failed = append(failed, fmt.Sprintf("%s: decoding reply: %v", b.url, err))
			continue
		}
		if primary == nil {
			primary, want = res, reply.NewFingerprint
		}
		if reply.NewFingerprint != want {
			agree = false
		}
		fps = append(fps, b.url+"="+reply.NewFingerprint)
	}
	op := strings.TrimPrefix(r.URL.Path, "/v1/")
	switch {
	case len(failed) > 0:
		server.WriteError(w, http.StatusBadGateway, "propagation_failed",
			"%s of shard %q failed on %d of %d replicas: %s (applied: %s)",
			op, req.Shard, len(failed), len(reps), strings.Join(failed, "; "), strings.Join(fps, ", "))
	case !agree:
		server.WriteError(w, http.StatusBadGateway, "replica_divergence",
			"%s of shard %q published diverging fingerprints: %s — builds are deterministic, so the replicas were not identical before the operation",
			op, req.Shard, strings.Join(fps, ", "))
	default:
		w.Header().Set("X-Pde-Replicas", fmt.Sprint(len(reps)))
		relay(w, primary)
	}
}

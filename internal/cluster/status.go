package cluster

import (
	"context"
	"net/http"
	"runtime"
	"sort"
	"time"

	"pde/internal/server"
)

// DaemonStatus is one daemon in the coordinator's health view.
type DaemonStatus struct {
	URL                 string   `json:"url"`
	Healthy             bool     `json:"healthy"`
	ConsecutiveFailures int64    `json:"consecutive_failures"`
	LastProbeUnixNS     int64    `json:"last_probe_unix_ns"`
	LastError           string   `json:"last_error,omitempty"`
	Shards              []string `json:"shards"`
}

// ShardPlacement is one shard's replica set: URLs in failover order
// (primary first), how many answer health probes, each healthy
// replica's live serving fingerprint, and whether those agree.
type ShardPlacement struct {
	Replicas     []string          `json:"replicas"`
	Healthy      int               `json:"healthy"`
	Fingerprints map[string]string `json:"fingerprints"`
	Agree        bool              `json:"agree"`
}

// StatusResponse is the /v1/cluster body: the coordinator's own view
// of the fleet plus its routing counters.
type StatusResponse struct {
	UptimeNS   int64                     `json:"uptime_ns"`
	Daemons    []DaemonStatus            `json:"daemons"`
	Shards     map[string]ShardPlacement `json:"shards"`
	Proxied    int64                     `json:"proxied"`
	Failovers  int64                     `json:"failovers"`
	RetryWaits int64                     `json:"retry_waits"`
}

// handleClusterStatus reports placement, per-daemon health, and — for
// every healthy replica — the live serving fingerprint, fetched now
// rather than cached, so "do the replicas agree" is a question this
// endpoint answers about the present.
func (c *Coordinator) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if !server.RequireMethod(w, r, http.MethodGet) {
		return
	}
	stats := c.fleetStats(r.Context())

	resp := StatusResponse{
		UptimeNS:   time.Since(c.start).Nanoseconds(),
		Shards:     make(map[string]ShardPlacement),
		Proxied:    c.proxied.Load(),
		Failovers:  c.failovers.Load(),
		RetryWaits: c.retryWaits.Load(),
	}
	for _, b := range c.backends {
		b.mu.Lock()
		lastErr := b.lastErr
		shards := append([]string(nil), b.shards...)
		b.mu.Unlock()
		resp.Daemons = append(resp.Daemons, DaemonStatus{
			URL:                 b.url,
			Healthy:             b.healthy.Load(),
			ConsecutiveFailures: b.consecutiveFails.Load(),
			LastProbeUnixNS:     b.lastProbeUnixNS.Load(),
			LastError:           lastErr,
			Shards:              shards,
		})
	}

	c.mu.RLock()
	for shard, reps := range c.table {
		pl := ShardPlacement{Fingerprints: make(map[string]string), Agree: true}
		want, first := "", true
		for _, b := range reps {
			pl.Replicas = append(pl.Replicas, b.url)
			if !b.healthy.Load() {
				continue
			}
			pl.Healthy++
			status, ok := stats[b][shard]
			if !ok {
				continue
			}
			fp := status.Fingerprint
			pl.Fingerprints[b.url] = fp
			if first {
				want, first = fp, false
			} else if fp != want {
				pl.Agree = false
			}
		}
		resp.Shards[shard] = pl
	}
	c.mu.RUnlock()
	server.WriteJSON(w, &resp)
}

// fleetStats fetches /v1/stats from every healthy daemon, each under
// the probe timeout, and returns each daemon's shard statuses.
// Unreachable daemons are simply absent — callers treat missing data as
// "unknown", not "agrees".
func (c *Coordinator) fleetStats(ctx context.Context) map[*backend]map[string]server.ShardStatus {
	stats := make(map[*backend]map[string]server.ShardStatus, len(c.backends))
	for _, b := range c.backends {
		if !b.healthy.Load() {
			continue
		}
		sctx, cancel := context.WithTimeout(ctx, c.policy.probeTimeout)
		st, err := b.client.Stats(sctx)
		cancel()
		if err == nil {
			stats[b] = st.Shards
		}
	}
	return stats
}

// handleStats serves the daemon-shaped /v1/stats so single-daemon
// tooling (pde-query -remote discovery above all) works unchanged
// against the coordinator: every placed shard's status, taken from its
// first healthy replica.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if !server.RequireMethod(w, r, http.MethodGet) {
		return
	}
	resp := server.StatsResponse{
		UptimeNS:   time.Since(c.start).Nanoseconds(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Shards:     make(map[string]server.ShardStatus),
	}
	if wa := c.wireAddr.Load(); wa != nil {
		resp.WireAddr = *wa
	}
	stats := c.fleetStats(r.Context())

	c.mu.RLock()
	table := c.table
	c.mu.RUnlock()
	for shard, reps := range table {
		for _, b := range reps {
			if status, ok := stats[b][shard]; ok {
				resp.Shards[shard] = status
				break
			}
		}
	}
	server.WriteJSON(w, &resp)
}

// handleHealthz answers like a daemon: "ok" while every placed shard
// has at least one healthy replica, "degraded" with a 503 otherwise —
// load balancers read the status code alone.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !server.RequireMethod(w, r, http.MethodGet) {
		return
	}
	status := "ok"
	c.mu.RLock()
	names := make([]string, 0, len(c.table))
	for shard, reps := range c.table {
		names = append(names, shard)
		covered := false
		for _, b := range reps {
			if b.healthy.Load() {
				covered = true
				break
			}
		}
		if !covered {
			status = "degraded"
		}
	}
	c.mu.RUnlock()
	sort.Strings(names)

	if status != "ok" {
		// The content type must precede the status line.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	server.WriteJSON(w, &server.HealthResponse{
		Status:   status,
		UptimeNS: time.Since(c.start).Nanoseconds(),
		Shards:   names,
	})
}

// FetchStatus retrieves /v1/cluster from a coordinator — the helper
// behind pde-query's -cluster topology banner — through the daemon
// client's JSON call.
func FetchStatus(ctx context.Context, base string) (*StatusResponse, error) {
	return server.CallJSON[StatusResponse](ctx, &server.Client{BaseURL: base}, "/v1/cluster", nil)
}

// Package cluster is the multi-daemon serving layer: a coordinator
// that places named shards across N pde-serve daemons and fronts them
// with one wire-compatible endpoint.
//
// The coordinator owns no tables. At boot it probes every configured
// daemon's /healthz and /v1/stats, learns which shards each one serves,
// and derives the placement: a shard's replica set is exactly the
// daemons configured with it (replication is declared by giving the
// same shard name and spec to more than one daemon), ordered by
// highest-random-weight (rendezvous) hashing so every coordinator
// instance derives the same primary without coordination.
//
// Query traffic (/v1/estimate, /v1/nexthop, /v1/route, /v1/setdist) is
// routed by shard name and proxied byte-for-byte: the coordinator tries
// the replicas in placement order, fails over on transport errors and
// 5xx responses, and retries the whole replica set with doubling
// backoff before giving up with a no_healthy_replica envelope. A
// background prober per daemon keeps the health view fresh; a forward
// failure marks the daemon down immediately so the next request skips
// it without paying the timeout again.
//
// Admin traffic (/v1/rebuild, /v1/update) is propagated to every
// replica of the target shard and the published fingerprints are
// compared: table builds are deterministic, so replicas that applied
// the same operation must agree bit-for-bit, and the coordinator
// refuses to report success when any replica failed or diverged.
// Generation coherence — every answer stamped with the fingerprint of
// the exact tables that produced it — survives the cluster layer
// because answers are proxied from a single daemon, never merged.
//
// The coordinator refuses requests with the daemon's own error envelope
// (server.WriteError), so clients tell its refusals from a daemon's
// only by code: no_healthy_replica, propagation_failed and
// replica_divergence are the coordinator's.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pde/internal/server"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Daemons are the pde-serve base URLs to place shards across. Every
	// daemon must be reachable at New: the coordinator learns placement
	// from live inventories, so a daemon that is down at boot has no
	// shards to place (runtime failures are handled by failover
	// instead).
	Daemons []string

	// policy replaces fixedPolicy when non-zero. Only this package's
	// tests set it, to see probes and backoffs in milliseconds.
	policy policy
}

// policy is the coordinator's timing and failover policy.
type policy struct {
	probeInterval  time.Duration // how often each daemon's /healthz is polled
	probeTimeout   time.Duration // one health or stats probe
	attemptTimeout time.Duration // one forwarded query against one replica
	adminTimeout   time.Duration // one rebuild/update against one replica
	retries        int           // extra passes over the replica set after the first
	retryBackoff   time.Duration // sleep before the second pass; doubles, capped at 1s
}

// fixedPolicy is the one policy every coordinator runs. Table builds are
// legitimately slow, hence the long admin timeout.
var fixedPolicy = policy{
	probeInterval:  500 * time.Millisecond,
	probeTimeout:   2 * time.Second,
	attemptTimeout: 15 * time.Second,
	adminTimeout:   10 * time.Minute,
	retries:        2,
	retryBackoff:   25 * time.Millisecond,
}

// maxBody caps request and proxied-response bodies.
const maxBody = server.DefaultMaxResponseBytes

// backend is one pde-serve daemon as the coordinator sees it.
type backend struct {
	url    string
	client *server.Client // health and stats probes

	healthy          atomic.Bool
	consecutiveFails atomic.Int64
	lastProbeUnixNS  atomic.Int64

	mu      sync.Mutex
	lastErr string
	shards  []string // sorted inventory from the last successful probe
}

func (b *backend) markUp() {
	b.healthy.Store(true)
	b.consecutiveFails.Store(0)
	b.mu.Lock()
	b.lastErr = ""
	b.mu.Unlock()
}

func (b *backend) markDown(err error) {
	b.healthy.Store(false)
	b.consecutiveFails.Add(1)
	b.mu.Lock()
	b.lastErr = err.Error()
	b.mu.Unlock()
}

func (b *backend) inventory() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shards
}

// Coordinator fronts a fleet of pde-serve daemons behind the daemon
// wire protocol, plus /v1/cluster for its own placement and health
// view. It is an http.Handler; serve it like a daemon.
type Coordinator struct {
	policy   policy
	client   *http.Client
	backends []*backend

	mu    sync.RWMutex
	table map[string][]*backend // shard -> replicas, rendezvous order

	adminMuMu sync.Mutex
	adminMu   map[string]*sync.Mutex // per-shard admin serialization

	mux   *http.ServeMux
	start time.Time
	stop  chan struct{}
	wg    sync.WaitGroup

	proxied    atomic.Int64 // query requests answered through a replica
	failovers  atomic.Int64 // attempts that failed and moved to another replica
	retryWaits atomic.Int64 // backoff sleeps between full replica-set passes

	// wireAddr is the PDE2 relay's listen address once ServeWire is
	// active; the coordinator-shaped /v1/stats reports it so wire-codec
	// clients discover the relay like they would a daemon's endpoint.
	wireAddr atomic.Pointer[string]
}

// New probes every configured daemon, derives the shard placement,
// verifies that replicas of the same shard serve identical
// fingerprints, and starts the health probers. It fails if any daemon
// is unreachable or if replicas already diverge — a coordinator must
// not launder a split-brain fleet into one endpoint.
func New(cfg Config) (*Coordinator, error) {
	urls := make([]string, 0, len(cfg.Daemons))
	seen := make(map[string]bool)
	for _, u := range cfg.Daemons {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("cluster: no daemons configured")
	}
	c := &Coordinator{
		policy:  cfg.policy,
		client:  &http.Client{Transport: server.DefaultTransport()},
		table:   make(map[string][]*backend),
		adminMu: make(map[string]*sync.Mutex),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		stop:    make(chan struct{}),
	}
	if c.policy == (policy{}) {
		c.policy = fixedPolicy
	}
	for _, u := range urls {
		c.backends = append(c.backends, &backend{
			url:    u,
			client: &server.Client{BaseURL: u, HTTP: c.client},
		})
	}

	// Boot probe: inventory and fingerprint every daemon.
	fps := make(map[string]map[string]string, len(c.backends)) // url -> shard -> fp
	for _, b := range c.backends {
		ctx, cancel := context.WithTimeout(context.Background(), c.policy.probeTimeout)
		st, err := b.client.Stats(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("cluster: daemon %s is unreachable at boot: %w", b.url, err)
		}
		shards := make([]string, 0, len(st.Shards))
		byShard := make(map[string]string, len(st.Shards))
		for name, status := range st.Shards {
			shards = append(shards, name)
			byShard[name] = status.Fingerprint
		}
		sort.Strings(shards)
		b.mu.Lock()
		b.shards = shards
		b.mu.Unlock()
		b.healthy.Store(true)
		b.lastProbeUnixNS.Store(time.Now().UnixNano())
		fps[b.url] = byShard
	}
	c.rebuildTable()

	// Replicas of a shard must already agree: deterministic builds from
	// the same spec are fingerprint-identical, so a mismatch means the
	// daemons were configured with different specs (or one was mutated
	// by churn the others never saw).
	c.mu.RLock()
	defer c.mu.RUnlock()
	for shard, reps := range c.table {
		want := ""
		for i, b := range reps {
			got := fps[b.url][shard]
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				return nil, fmt.Errorf("cluster: shard %q diverges at boot: %s serves %s, %s serves %s",
					shard, reps[0].url, want, b.url, got)
			}
		}
	}

	c.routes()
	for _, b := range c.backends {
		c.wg.Add(1)
		go c.probeLoop(b)
	}
	return c, nil
}

func (c *Coordinator) routes() {
	for _, p := range []string{"/v1/estimate", "/v1/nexthop", "/v1/route", "/v1/setdist"} {
		c.mux.HandleFunc(p, c.handleQuery)
	}
	c.mux.HandleFunc("/v1/rebuild", c.handleAdmin)
	c.mux.HandleFunc("/v1/update", c.handleAdmin)
	c.mux.HandleFunc("/v1/stats", c.handleStats)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/v1/cluster", c.handleClusterStatus)
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Close stops the health probers. In-flight requests finish normally.
func (c *Coordinator) Close() {
	close(c.stop)
	c.wg.Wait()
}

// Daemons is the number of distinct daemons the coordinator fronts.
func (c *Coordinator) Daemons() int { return len(c.backends) }

// Shards lists the placed shard names, sorted.
func (c *Coordinator) Shards() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.table))
	for name := range c.table {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Placement returns the replica URLs of one shard in failover order
// (primary first), or nil for an unknown shard.
func (c *Coordinator) Placement(shard string) []string {
	reps := c.replicasFor(shard)
	if reps == nil {
		return nil
	}
	urls := make([]string, len(reps))
	for i, b := range reps {
		urls[i] = b.url
	}
	return urls
}

func (c *Coordinator) adminLock(shard string) *sync.Mutex {
	c.adminMuMu.Lock()
	defer c.adminMuMu.Unlock()
	m, ok := c.adminMu[shard]
	if !ok {
		m = &sync.Mutex{}
		c.adminMu[shard] = m
	}
	return m
}

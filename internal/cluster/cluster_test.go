package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/server"
)

// firstEdgeReweight bumps the first edge the graph enumerates — the
// smallest churn batch that certainly touches a live edge.
func firstEdgeReweight(g *graph.Graph) server.WireChange {
	var c server.WireChange
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		if c.Op == "" {
			c = server.WireChange{Op: "reweight", U: u, V: v, W: w + 1}
		}
	})
	return c
}

// hotSpec is the replicated test shard: tiny, so every daemon build is
// milliseconds.
var hotSpec = server.Spec{Topology: "random", N: 24, Eps: 1, MaxW: 4, Seed: 2}

// testDaemon is one live pde-serve behind httptest.
type testDaemon struct {
	srv *server.Server
	ts  *httptest.Server
}

func (d *testDaemon) url() string { return d.ts.URL }

// kill severs the daemon abruptly: the listener stops accepting and
// every established connection is dropped mid-flight — what a crashed
// process looks like from the coordinator.
func (d *testDaemon) kill() {
	d.ts.Listener.Close()
	d.ts.CloseClientConnections()
}

// bootDaemons builds one daemon per shard map and registers cleanup.
func bootDaemons(t *testing.T, shardSets []map[string]server.Spec) []*testDaemon {
	t.Helper()
	daemons := make([]*testDaemon, len(shardSets))
	for i, specs := range shardSets {
		srv, err := server.New(specs, server.Config{})
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		ts := httptest.NewServer(srv)
		daemons[i] = &testDaemon{srv: srv, ts: ts}
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
	}
	return daemons
}

// testPolicy is fixedPolicy with probing and backoff fast enough for
// tests.
var testPolicy = func() policy {
	p := fixedPolicy
	p.probeInterval = 25 * time.Millisecond
	p.retryBackoff = 5 * time.Millisecond
	return p
}()

// testConfig is a coordinator config over daemons under testPolicy.
func testConfig(daemons []*testDaemon) Config {
	urls := make([]string, len(daemons))
	for i, d := range daemons {
		urls[i] = d.url()
	}
	return Config{Daemons: urls, policy: testPolicy}
}

func newCoordinator(t *testing.T, daemons []*testDaemon) (*Coordinator, *httptest.Server) {
	t.Helper()
	coord, err := New(testConfig(daemons))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	return coord, ts
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRendezvousPlacement pins the consistency property: every
// coordinator derives the same replica order, and removing a daemon
// never reorders the survivors.
func TestRendezvousPlacement(t *testing.T) {
	urls := []string{"http://a:1", "http://b:2", "http://c:3"}
	order := func(shard string, us []string) []string {
		backs := make([]*backend, len(us))
		for i, u := range us {
			backs[i] = &backend{url: u, shards: []string{shard}}
		}
		c := &Coordinator{backends: backs, table: map[string][]*backend{}}
		c.rebuildTable()
		got := make([]string, 0, len(us))
		for _, b := range c.table[shard] {
			got = append(got, b.url)
		}
		return got
	}
	full := order("hot", urls)
	if len(full) != 3 {
		t.Fatalf("placement dropped replicas: %v", full)
	}
	if again := order("hot", urls); !slices.Equal(full, again) {
		t.Fatalf("placement is not deterministic: %v vs %v", full, again)
	}
	// Remove the primary: the rest keep their relative order.
	without := order("hot", []string{full[1], full[2]})
	if !slices.Equal(without, []string{full[1], full[2]}) {
		t.Fatalf("removing the primary reordered survivors: %v", without)
	}
}

// TestClusterRoutesQueriesByShard boots 3 daemons (a replicated hot
// shard plus one daemon-local shard), fronts them with a coordinator,
// and checks both codecs of every query endpoint answer through it
// exactly like the daemons themselves.
func TestClusterRoutesQueriesByShard(t *testing.T) {
	soloSpec := server.Spec{Topology: "ring", N: 16, Eps: 1, MaxW: 4, Seed: 5}
	daemons := bootDaemons(t, []map[string]server.Spec{
		{"hot": hotSpec},
		{"hot": hotSpec, "solo": soloSpec},
		{"hot": hotSpec},
	})
	coord, cts := newCoordinator(t, daemons)

	if got := coord.Placement("hot"); len(got) != 3 {
		t.Fatalf("hot placed on %v, want all 3 daemons", got)
	}
	if got := coord.Placement("solo"); len(got) != 1 || got[0] != daemons[1].url() {
		t.Fatalf("solo placed on %v, want exactly %s", got, daemons[1].url())
	}
	if got := coord.Shards(); !slices.Equal(got, []string{"hot", "solo"}) {
		t.Fatalf("Shards() = %v", got)
	}

	ctx := context.Background()
	qs := []oracle.Query{{V: 0, S: 5}, {V: 3, S: 3}, {V: 7, S: 1}}
	for _, shard := range []string{"hot", "solo"} {
		direct := &server.Client{BaseURL: coord.Placement(shard)[0], Shard: shard}
		want, wantFP, err := direct.Estimate(ctx, qs, false)
		if err != nil {
			t.Fatalf("%s: direct estimate: %v", shard, err)
		}
		through := &server.Client{BaseURL: cts.URL, Shard: shard}
		for _, asJSON := range []bool{false, true} {
			got, fp, err := through.Estimate(ctx, qs, asJSON)
			if err != nil {
				t.Fatalf("%s: estimate via coordinator (json=%v): %v", shard, asJSON, err)
			}
			if fp != wantFP {
				t.Fatalf("%s: coordinator answer stamped %s, daemon %s", shard, fp, wantFP)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: answer %d = %+v via coordinator, %+v direct", shard, i, got[i], want[i])
				}
			}
		}
		if _, _, err := through.NextHop(ctx, qs, true); err != nil {
			t.Fatalf("%s: nexthop via coordinator: %v", shard, err)
		}
		if _, err := through.Route(ctx, []server.WirePair{{From: 1, To: 4}}); err != nil {
			t.Fatalf("%s: route via coordinator: %v", shard, err)
		}
		if _, err := through.SetDist(ctx, []int32{0, 1, 2}, []int32{3, 4}, false, false); err != nil {
			t.Fatalf("%s: setdist via coordinator: %v", shard, err)
		}
	}

	// The merged /v1/stats serves daemon-shaped discovery.
	cl := &server.Client{BaseURL: cts.URL}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats via coordinator: %v", err)
	}
	if len(st.Shards) != 2 || st.Shards["hot"].N != hotSpec.N || st.Shards["solo"].N != soloSpec.N {
		t.Fatalf("merged stats: %+v", st.Shards)
	}
	h, err := cl.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz via coordinator: %+v, %v", h, err)
	}

	// Unknown shards and shardless requests get proper envelopes.
	ghost := &server.Client{BaseURL: cts.URL, Shard: "ghost"}
	if _, _, err := ghost.Estimate(ctx, qs, false); err == nil || !strings.Contains(err.Error(), "unknown_shard") {
		t.Fatalf("ghost shard error = %v", err)
	}
	resp, err := http.Post(cts.URL+"/v1/estimate", "application/json", strings.NewReader(`{"queries":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	var env server.ErrorEnvelope
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Fatalf("shardless request: status %d, envelope %+v", resp.StatusCode, env)
	}
}

// TestClusterStatusEndpoint checks /v1/cluster reports placement,
// health, live fingerprints and agreement.
func TestClusterStatusEndpoint(t *testing.T) {
	daemons := bootDaemons(t, []map[string]server.Spec{
		{"hot": hotSpec}, {"hot": hotSpec},
	})
	_, cts := newCoordinator(t, daemons)

	st, err := FetchStatus(context.Background(), cts.URL)
	if err != nil {
		t.Fatalf("FetchStatus: %v", err)
	}
	if len(st.Daemons) != 2 {
		t.Fatalf("status daemons: %+v", st.Daemons)
	}
	for _, d := range st.Daemons {
		if !d.Healthy || !slices.Equal(d.Shards, []string{"hot"}) {
			t.Fatalf("daemon status %+v", d)
		}
	}
	pl, ok := st.Shards["hot"]
	if !ok || pl.Healthy != 2 || !pl.Agree || len(pl.Fingerprints) != 2 {
		t.Fatalf("hot placement %+v", pl)
	}
	var fp string
	for _, got := range pl.Fingerprints {
		if fp == "" {
			fp = got
		} else if got != fp {
			t.Fatalf("status says agree but fingerprints differ: %+v", pl.Fingerprints)
		}
	}
}

// TestClusterRebuildAndUpdatePropagation drives the admin plane
// through the coordinator: a rebuild with a seed override and then a
// churn update must land on every replica, with all replicas
// fingerprint-identical after each operation and after one of them dies.
func TestClusterRebuildAndUpdatePropagation(t *testing.T) {
	daemons := bootDaemons(t, []map[string]server.Spec{
		{"hot": hotSpec}, {"hot": hotSpec}, {"hot": hotSpec},
	})
	coord, cts := newCoordinator(t, daemons)
	ctx := context.Background()

	seed := int64(77)
	cl := &server.Client{BaseURL: cts.URL, Shard: "hot"}
	rb, err := cl.Rebuild(ctx, map[string]any{"seed": seed})
	if err != nil {
		t.Fatalf("rebuild via coordinator: %v", err)
	}
	if !rb.Changed {
		t.Fatalf("seed override did not change the tables: %+v", rb)
	}
	for i, d := range daemons {
		fp, _ := d.srv.Fingerprint("hot")
		if fp != rb.NewFingerprint {
			t.Fatalf("daemon %d serves %s after propagated rebuild, want %s", i, fp, rb.NewFingerprint)
		}
	}

	// A churn update on the rebuilt graph: regenerate it client-side to
	// name a live edge, exactly like pde-query -updates does.
	sp := rb.Spec.Normalized()
	g, err := sp.BuildGraph()
	if err != nil {
		t.Fatalf("regenerating graph: %v", err)
	}
	ur, err := cl.Update(ctx, server.UpdateRequest{Changes: []server.WireChange{firstEdgeReweight(g)}, Verify: true})
	if err != nil {
		t.Fatalf("update via coordinator: %v", err)
	}
	for i, d := range daemons {
		fp, _ := d.srv.Fingerprint("hot")
		if fp != ur.NewFingerprint {
			t.Fatalf("daemon %d serves %s after propagated update, want %s", i, fp, ur.NewFingerprint)
		}
	}

	st, err := FetchStatus(ctx, cts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if pl := st.Shards["hot"]; !pl.Agree || pl.Healthy != 3 {
		t.Fatalf("post-admin placement: %+v", pl)
	}

	// Kill the primary: the survivors still agree on the churned
	// generation, queries are stamped with it, and /healthz stays ok.
	primary := coord.Placement("hot")[0]
	for _, d := range daemons {
		if d.url() == primary {
			d.kill()
		}
	}
	waitFor(t, "prober to mark the killed primary down", func() bool {
		st, err = FetchStatus(ctx, cts.URL)
		return err == nil && st.Shards["hot"].Healthy == 2
	})
	if pl := st.Shards["hot"]; !pl.Agree || len(pl.Fingerprints) != 2 {
		t.Fatalf("survivors after the kill: %+v", pl)
	}
	for url, fp := range st.Shards["hot"].Fingerprints {
		if fp != ur.NewFingerprint {
			t.Fatalf("survivor %s serves %s after the kill, want the churned %s", url, fp, ur.NewFingerprint)
		}
	}
	if _, fp, err := cl.Estimate(ctx, []oracle.Query{{V: 1, S: 2}}, false); err != nil || fp != ur.NewFingerprint {
		t.Fatalf("post-kill estimate stamped %s (%v), want %s", fp, err, ur.NewFingerprint)
	}
	if h, err := cl.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz after the kill: %+v, %v", h, err)
	}
}

// TestClusterRefusesDivergedReplicas covers both halves of the
// fingerprint-agreement guarantee: a fleet whose replicas already
// diverge is refused at boot, and an admin operation whose replicas
// publish different fingerprints is refused at response time.
func TestClusterRefusesDivergedReplicas(t *testing.T) {
	other := hotSpec
	other.Seed = 3 // different graph, same shard name
	diverged := bootDaemons(t, []map[string]server.Spec{
		{"hot": hotSpec}, {"hot": other},
	})
	if _, err := New(testConfig(diverged)); err == nil || !strings.Contains(err.Error(), "diverges at boot") {
		t.Fatalf("boot against diverged replicas: %v", err)
	}

	daemons := bootDaemons(t, []map[string]server.Spec{
		{"hot": hotSpec}, {"hot": hotSpec},
	})
	_, cts := newCoordinator(t, daemons)
	ctx := context.Background()

	// Diverge replica 1 behind the coordinator's back: same graph
	// (topology knobs untouched), different tables (eps override).
	eps := 0.25
	direct := &server.Client{BaseURL: daemons[1].url(), Shard: "hot"}
	if _, err := direct.Rebuild(ctx, map[string]any{"eps": eps}); err != nil {
		t.Fatalf("out-of-band rebuild: %v", err)
	}

	st, err := FetchStatus(ctx, cts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if pl := st.Shards["hot"]; pl.Agree {
		t.Fatalf("/v1/cluster reports agreement across diverged replicas: %+v", pl)
	}

	g, err := hotSpec.Normalized().BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	cl := &server.Client{BaseURL: cts.URL, Shard: "hot"}
	_, err = cl.Update(ctx, server.UpdateRequest{Changes: []server.WireChange{firstEdgeReweight(g)}})
	if err == nil || !strings.Contains(err.Error(), "replica_divergence") {
		t.Fatalf("update across diverged replicas = %v, want replica_divergence refusal", err)
	}
}

// TestBootProbeOfAHungDaemonIsBounded: a daemon that accepts the
// connection but never answers fails New once the probe timeout runs
// out, instead of hanging the boot.
func TestBootProbeOfAHungDaemonIsBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0") // never Accepts: the kernel queues, nobody answers
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	p := testPolicy
	p.probeTimeout = 100 * time.Millisecond
	start := time.Now()
	coord, err := New(Config{Daemons: []string{"http://" + ln.Addr().String()}, policy: p})
	if err == nil {
		coord.Close()
		t.Fatal("New over a hung daemon succeeded")
	}
	if !strings.Contains(err.Error(), "unreachable at boot") || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("New = %v, want unreachable at boot after the probe deadline", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("boot probe took %v under a %v probe timeout", took, p.probeTimeout)
	}
}

// TestClusterFailsOverDuringHealthFlap wraps one replica in a proxy
// that can be dropped and revived, and checks the router keeps
// answering throughout — failover, not wedging — and re-admits the
// replica when it comes back.
func TestClusterFailsOverDuringHealthFlap(t *testing.T) {
	daemons := bootDaemons(t, []map[string]server.Spec{
		{"hot": hotSpec}, {"hot": hotSpec},
	})
	// Daemon 0 is reached through a flaky front that severs every
	// connection while down.
	var down atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		daemons[0].srv.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	coord, err := New(Config{Daemons: []string{flaky.URL, daemons[1].url()}, policy: testPolicy})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cts := httptest.NewServer(coord)
	defer func() {
		cts.Close()
		coord.Close()
	}()

	ctx := context.Background()
	qs := []oracle.Query{{V: 1, S: 9}, {V: 4, S: 4}}
	cl := &server.Client{BaseURL: cts.URL, Shard: "hot"}
	query := func(stage string) {
		t.Helper()
		if _, _, err := cl.Estimate(ctx, qs, false); err != nil {
			t.Fatalf("%s: estimate failed: %v", stage, err)
		}
	}
	healthyCount := func() int {
		st, err := FetchStatus(ctx, cts.URL)
		if err != nil {
			return -1
		}
		return st.Shards["hot"].Healthy
	}

	query("both up")
	for flap := 0; flap < 2; flap++ {
		down.Store(true)
		waitFor(t, fmt.Sprintf("flap %d: probe to notice the drop", flap), func() bool { return healthyCount() == 1 })
		query(fmt.Sprintf("flap %d: one replica down", flap))
		down.Store(false)
		waitFor(t, fmt.Sprintf("flap %d: probe to re-admit", flap), func() bool { return healthyCount() == 2 })
		query(fmt.Sprintf("flap %d: both back", flap))
	}
}

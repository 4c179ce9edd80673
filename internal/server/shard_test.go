package server

import (
	"strings"
	"testing"

	"pde/internal/core"
	"pde/internal/scheme"
)

// oracle is the oracle backend behind a snapshot: the reference handles
// (Res, O, Rtr) the tests compare served answers against.
func (sh *shard) oracle() *scheme.OracleInstance { return sh.inst.(*scheme.OracleInstance) }

// TestSpecValidate pins which specs the daemon refuses to build.
func TestSpecValidate(t *testing.T) {
	good := Spec{Topology: "random", N: 16, Eps: 0.5, MaxW: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"topology", func(sp *Spec) { sp.Topology = "moebius" }, "topology"},
		{"n", func(sp *Spec) { sp.N = 1 }, "n must be"},
		{"eps", func(sp *Spec) { sp.Eps = 0 }, "eps must be"},
		{"maxw", func(sp *Spec) { sp.MaxW = 0 }, "maxw must be"},
		{"negative h", func(sp *Spec) { sp.H = -1 }, "h and sigma"},
		{"negative sigma", func(sp *Spec) { sp.Sigma = -2 }, "h and sigma"},
	}
	for _, tc := range bad {
		sp := good
		tc.mutate(&sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
		if _, err := sp.BuildGraph(); err == nil {
			t.Errorf("%s: BuildGraph accepted an invalid spec", tc.name)
		}
	}
}

// TestSpecBuildGraphFamilies builds every generator family through the
// spec surface and checks determinism in the seed.
func TestSpecBuildGraphFamilies(t *testing.T) {
	for _, topo := range []string{"random", "grid", "internet", "ring", "powerlaw", "community", "roadgrid"} {
		sp := Spec{Topology: topo, N: 24, Eps: 1, MaxW: 4, Seed: 6}
		g1, err := sp.BuildGraph()
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if g1.N() < sp.N {
			t.Fatalf("%s: built %d nodes, want >= %d", topo, g1.N(), sp.N)
		}
		g2, err := sp.BuildGraph()
		if err != nil {
			t.Fatalf("%s rebuild: %v", topo, err)
		}
		if g1.N() != g2.N() || g1.M() != g2.M() {
			t.Fatalf("%s: same seed built (%d, %d) then (%d, %d)", topo, g1.N(), g1.M(), g2.N(), g2.M())
		}
	}
}

// TestSpecParams checks the APSP default and the partial-sweep mapping
// (every third node a source, h/sigma defaulting to n when 0).
func TestSpecParams(t *testing.T) {
	apsp := Spec{Topology: "random", N: 30, Eps: 0.5, MaxW: 4}
	p := apsp.Params(30)
	if p.H != 30 || p.Sigma != 30 {
		t.Fatalf("APSP params: h=%d sigma=%d, want 30/30", p.H, p.Sigma)
	}
	for v, isSrc := range p.IsSource {
		if !isSrc {
			t.Fatalf("APSP: node %d is not a source", v)
		}
	}

	sweep := Spec{Topology: "random", N: 30, Eps: 0.5, MaxW: 4, H: 8, Sigma: 0}
	p = sweep.Params(30)
	if p.H != 8 || p.Sigma != 30 {
		t.Fatalf("sweep params: h=%d sigma=%d, want 8/30", p.H, p.Sigma)
	}
	sources := 0
	for v, isSrc := range p.IsSource {
		if isSrc != (v%3 == 0) {
			t.Fatalf("sweep: node %d source=%v", v, isSrc)
		}
		if isSrc {
			sources++
		}
	}
	if sources != 10 {
		t.Fatalf("sweep: %d sources, want 10", sources)
	}
}

// TestNewBuildsFromSpecs covers the spec-driven constructor cmd/pde-serve
// uses, including its failure path.
func TestNewBuildsFromSpecs(t *testing.T) {
	srv, err := New(map[string]Spec{
		"a": {Topology: "ring", N: 12, Eps: 1, MaxW: 4, Seed: 1},
		"b": {Topology: "random", N: 16, Eps: 1, MaxW: 4, Seed: 2},
	}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	if got := srv.Shards(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Shards() = %v", got)
	}
	for _, name := range []string{"a", "b"} {
		if fp, ok := srv.Fingerprint(name); !ok || fp == "" {
			t.Fatalf("shard %q fingerprint = %q, %v", name, fp, ok)
		}
	}
	if _, ok := srv.Fingerprint("ghost"); ok {
		t.Fatal("Fingerprint resolved a nonexistent shard")
	}

	if _, err := New(map[string]Spec{"bad": {Topology: "moebius", N: 8, Eps: 1, MaxW: 1}}, Config{}); err == nil {
		t.Fatal("New accepted an invalid spec")
	}
	if _, err := NewWithPrebuilt(Config{}); err == nil {
		t.Fatal("NewWithPrebuilt accepted zero shards")
	}
	sh, err := buildShard(Spec{Topology: "ring", N: 8, Eps: 1, MaxW: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithPrebuilt(Config{}, Prebuilt{Name: "", Spec: sh.spec, G: sh.g, Res: sh.oracle().Res}); err == nil {
		t.Fatal("NewWithPrebuilt accepted an empty shard name")
	}
	if _, err := NewWithPrebuilt(Config{},
		Prebuilt{Name: "x", Spec: sh.spec, G: sh.g, Res: sh.oracle().Res},
		Prebuilt{Name: "x", Spec: sh.spec, G: sh.g, Res: sh.oracle().Res}); err == nil {
		t.Fatal("NewWithPrebuilt accepted duplicate shard names")
	}
}

// TestRouteCacheLRU pins the eviction order.
func TestRouteCacheLRU(t *testing.T) {
	c := newRouteCache(2)
	k := func(i int32) routeCacheKey { return routeCacheKey{fp: "fp", v: i, s: i} }
	rtA, rtB, rtC := &core.Route{Weight: 1}, &core.Route{Weight: 2}, &core.Route{Weight: 3}
	c.put(k(1), rtA)
	c.put(k(2), rtB)
	if got, ok := c.get(k(1)); !ok || got != rtA {
		t.Fatal("entry 1 missing before capacity hit")
	}
	c.put(k(3), rtC) // evicts 2: 1 was touched more recently
	if _, ok := c.get(k(2)); ok {
		t.Fatal("LRU kept the least recently used entry")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("LRU evicted the recently used entry")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Overwriting refreshes in place.
	c.put(k(1), rtB)
	if got, _ := c.get(k(1)); got != rtB {
		t.Fatal("put did not overwrite the existing entry")
	}
}

// TestShardStatsHelpers covers the counters the handlers don't reach in
// unit tests directly.
func TestShardStatsHelpers(t *testing.T) {
	var st shardStats
	st.recordBatch(2, 10)
	st.recordBatch(1, 4)
	if st.maxBatch.Load() != 10 || st.batches.Load() != 2 || st.batchedQueries.Load() != 14 {
		t.Fatalf("batch counters: max=%d flushes=%d queries=%d",
			st.maxBatch.Load(), st.batches.Load(), st.batchedQueries.Load())
	}
}

package server

// Differential serving tests for the unified scheme engine: one daemon
// holds one shard per backend (oracle | rtc | compact) behind the
// unchanged wire protocol, and every served answer — estimates, next
// hops, full routes, both codecs — must be bit-identical to the
// corresponding legacy in-process package built from the same Spec.

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"pde/internal/compact"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/oracle"
	"pde/internal/rtc"
	"pde/internal/scheme"
)

func schemeSpecs() map[string]Spec {
	return map[string]Spec{
		"oracle":  {Topology: "random", N: 28, Eps: 1, MaxW: 6, Seed: 11},
		"rtc":     {Scheme: "rtc", Topology: "random", N: 28, Eps: 0.5, MaxW: 6, Seed: 13, K: 2, SampleProb: 0.3},
		"compact": {Scheme: "compact", Topology: "random", N: 28, Eps: 0.5, MaxW: 6, Seed: 17, K: 2},
	}
}

// legacyAnswers computes, for one spec, the in-process legacy package's
// answer to every query: (dist, ok) plus the first forwarding hop.
type legacyPath struct {
	estimate func(v int, s int32) (float64, bool)
	nextHop  func(v int, s int32) (int, bool)
	route    func(v int, s int32) (*core.Route, error)
}

func buildLegacyPath(t *testing.T, sp Spec) legacyPath {
	t.Helper()
	g, err := sp.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	switch sp.Normalized().Scheme {
	case "oracle":
		res, err := core.Run(g, sp.Params(g.N()), congest.Config{Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		o := oracle.Compile(res)
		rtr := core.NewRouterWith(g, res, o)
		return legacyPath{
			estimate: func(v int, s int32) (float64, bool) {
				e, ok := o.Estimate(v, s)
				return e.Dist, ok
			},
			nextHop: func(v int, s int32) (int, bool) { return rtr.NextHop(v, s) },
			route:   rtr.Route,
		}
	case "rtc":
		sch, err := rtc.Build(g, scheme.RTCParams(sp), congest.Config{Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		return legacyPath{
			estimate: func(v int, s int32) (float64, bool) {
				d, err := sch.DistEstimate(v, sch.Labels[s])
				return d, err == nil
			},
			nextHop: func(v int, s int32) (int, bool) {
				if v == int(s) {
					return v, true
				}
				next, _, err := sch.NextHop(v, sch.Labels[s])
				return next, err == nil
			},
			route: func(v int, s int32) (*core.Route, error) {
				rt, err := sch.Route(v, sch.Labels[s])
				if err != nil {
					return nil, err
				}
				return &core.Route{Path: rt.Path, Weight: rt.Weight}, nil
			},
		}
	case "compact":
		sch, err := compact.Build(g, scheme.CompactParams(sp), congest.Config{Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		return legacyPath{
			estimate: func(v int, s int32) (float64, bool) {
				d, err := sch.DistEstimate(v, sch.Labels[s])
				return d, err == nil
			},
			nextHop: func(v int, s int32) (int, bool) {
				if v == int(s) {
					return v, true
				}
				hop := sch.Answer(v, sch.Labels[s]).Hop
				return int(hop), hop >= 0
			},
			route: func(v int, s int32) (*core.Route, error) {
				rt, err := sch.Route(v, sch.Labels[s])
				if err != nil {
					return nil, err
				}
				return &core.Route{Path: rt.Path, Weight: rt.Weight}, nil
			},
		}
	}
	t.Fatalf("unknown scheme in spec %+v", sp)
	return legacyPath{}
}

// TestServedSchemesMatchLegacyPaths boots one shard per scheme and
// proves, for both codecs, that every served estimate, next hop and
// route equals the legacy in-process path's answer.
func TestServedSchemesMatchLegacyPaths(t *testing.T) {
	specs := schemeSpecs()
	srv, err := New(specs, Config{MaxBatch: 8192})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	for name, sp := range specs {
		legacy := buildLegacyPath(t, sp)
		cl := &Client{BaseURL: ts.URL, Shard: name, HTTP: ts.Client()}
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatalf("%s: stats: %v", name, err)
		}
		status := st.Shards[name]
		if status.Scheme != sp.Normalized().Scheme {
			t.Fatalf("%s: stats reports scheme %q", name, status.Scheme)
		}
		n := status.N

		rng := rand.New(rand.NewSource(sp.Seed + 1000))
		qs := make([]oracle.Query, 400)
		for i := range qs {
			qs[i] = oracle.Query{V: int32(rng.Intn(n)), S: int32(rng.Intn(n))}
		}
		for _, asJSON := range []bool{false, true} {
			answers, fp, err := cl.Estimate(context.Background(), qs, asJSON)
			if err != nil {
				t.Fatalf("%s: estimate (json=%v): %v", name, asJSON, err)
			}
			if fp != status.Fingerprint {
				t.Fatalf("%s: answered by %s, stats says %s", name, fp, status.Fingerprint)
			}
			for i, q := range qs {
				d, ok := legacy.estimate(int(q.V), q.S)
				if answers[i].OK != ok {
					t.Fatalf("%s: estimate (%d,%d) OK=%v, legacy %v", name, q.V, q.S, answers[i].OK, ok)
				}
				if ok && answers[i].Est.Dist != d {
					t.Fatalf("%s: estimate (%d,%d) dist %g, legacy %g (json=%v)",
						name, q.V, q.S, answers[i].Est.Dist, d, asJSON)
				}
			}
			hops, _, err := cl.NextHop(context.Background(), qs, asJSON)
			if err != nil {
				t.Fatalf("%s: nexthop (json=%v): %v", name, asJSON, err)
			}
			for i, q := range qs {
				next, ok := legacy.nextHop(int(q.V), q.S)
				if hops[i].OK != ok {
					t.Fatalf("%s: nexthop (%d,%d) OK=%v, legacy %v", name, q.V, q.S, hops[i].OK, ok)
				}
				if ok && int(hops[i].Next) != next {
					t.Fatalf("%s: nexthop (%d,%d) = %d, legacy %d", name, q.V, q.S, hops[i].Next, next)
				}
			}
		}

		// Routes: sample pairs that the legacy path can route, fire them
		// through the wire, and require identical paths and weights.
		pairs := make([]WirePair, 0, 100)
		want := make([]*core.Route, 0, 100)
		for len(pairs) < 100 {
			v, s := rng.Intn(n), int32(rng.Intn(n))
			rt, err := legacy.route(v, s)
			if err != nil {
				continue
			}
			pairs = append(pairs, WirePair{From: int32(v), To: s})
			want = append(want, rt)
		}
		resp, err := cl.Route(context.Background(), pairs)
		if err != nil {
			t.Fatalf("%s: route: %v", name, err)
		}
		for i := range pairs {
			got := resp.Routes[i]
			if !got.OK {
				t.Fatalf("%s: route %d->%d failed over the wire: %s", name, pairs[i].From, pairs[i].To, got.Error)
			}
			if got.Weight != want[i].Weight || len(got.Path) != len(want[i].Path) {
				t.Fatalf("%s: route %d->%d diverges: wire {w=%d hops=%d}, legacy {w=%d hops=%d}",
					name, pairs[i].From, pairs[i].To, got.Weight, len(got.Path), want[i].Weight, len(want[i].Path))
			}
			for j := range got.Path {
				if got.Path[j] != want[i].Path[j] {
					t.Fatalf("%s: route %d->%d path diverges at hop %d", name, pairs[i].From, pairs[i].To, j)
				}
			}
		}
	}
}

// TestSchemeShardAccountingInStats checks /v1/stats carries the
// per-scheme cost sheet for every backend.
func TestSchemeShardAccountingInStats(t *testing.T) {
	srv, err := New(schemeSpecs(), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	cl := &Client{BaseURL: ts.URL, HTTP: ts.Client()}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, status := range st.Shards {
		a := status.Accounting
		if a.Scheme != status.Scheme {
			t.Errorf("%s: accounting scheme %q != shard scheme %q", name, a.Scheme, status.Scheme)
		}
		if a.TableBytes <= 0 || a.MaxLabelBits <= 0 || a.ProbeRoutes <= 0 {
			t.Errorf("%s: incomplete accounting %+v", name, a)
		}
		if a.MeasuredStretch < 1 || a.MeasuredStretch > a.StretchBound+0.5 {
			t.Errorf("%s: measured stretch %.3f outside [1, bound+0.5=%.1f]", name, a.MeasuredStretch, a.StretchBound+0.5)
		}
		if status.OracleEntries != a.Entries || status.OracleBytes != a.TableBytes {
			t.Errorf("%s: legacy fields drifted from accounting", name)
		}
	}
}

// TestRebuildAcrossSchemes hot-swaps a shard from oracle to rtc and back:
// the registry makes the scheme itself just another spec field.
func TestRebuildAcrossSchemes(t *testing.T) {
	srv, err := New(map[string]Spec{
		"main": {Topology: "random", N: 24, Eps: 1, MaxW: 4, Seed: 2},
	}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	cl := &Client{BaseURL: ts.URL, Shard: "main", HTTP: ts.Client()}

	toRTC := "rtc"
	k := 2
	prob := 0.3
	eps := 0.5
	resp, err := cl.Rebuild(context.Background(), RebuildRequest{Shard: "main", Scheme: &toRTC, K: &k, SampleProb: &prob, Eps: &eps})
	if err != nil {
		t.Fatalf("rebuild to rtc: %v", err)
	}
	if !resp.Changed || resp.Spec.Scheme != "rtc" || resp.Spec.K != 2 {
		t.Fatalf("rebuild response %+v did not switch schemes", resp)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards["main"].Scheme != "rtc" {
		t.Fatalf("stats still report scheme %q", st.Shards["main"].Scheme)
	}
	// Served answers now come from the rtc tables.
	answers, fp, err := cl.Estimate(context.Background(), []oracle.Query{{V: 0, S: 5}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if fp != resp.NewFingerprint {
		t.Fatalf("post-swap answer from %s, rebuild built %s", fp, resp.NewFingerprint)
	}
	if len(answers) != 1 || !answers[0].OK {
		t.Fatalf("rtc shard answered %+v", answers)
	}

	toOracle := "oracle"
	resp2, err := cl.Rebuild(context.Background(), RebuildRequest{Shard: "main", Scheme: &toOracle})
	if err != nil {
		t.Fatalf("rebuild back to oracle: %v", err)
	}
	if resp2.Spec.Scheme != "oracle" {
		t.Fatalf("rebuild back kept scheme %q", resp2.Spec.Scheme)
	}
	// An invalid scheme override is a 400, not a swap.
	bogus := "quantum"
	if _, err := cl.Rebuild(context.Background(), RebuildRequest{Shard: "main", Scheme: &bogus}); err == nil {
		t.Fatal("rebuild to an unknown scheme should fail")
	}
}

// TestRebuildReportsCanonicalSpec walks a compact shard through overlays
// that spell the same hierarchy differently: whatever the overlay said,
// the rebuild response and /v1/stats report one spec per fingerprint.
func TestRebuildReportsCanonicalSpec(t *testing.T) {
	srv, err := New(map[string]Spec{
		"main": {Scheme: "compact", Topology: "random", N: 40, Eps: 0.5, MaxW: 8, Seed: 1, K: 3, L0: 1},
	}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	cl := &Client{BaseURL: ts.URL, Shard: "main", HTTP: ts.Client()}
	stats := func() (string, Spec) {
		t.Helper()
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st.Shards["main"].Fingerprint, st.Shards["main"].Spec
	}
	bootFP, bootSpec := stats()
	if bootSpec.Strategy != "simulate" {
		t.Fatalf("l0=1 shard booted reporting strategy %q over simulate-truncated tables", bootSpec.Strategy)
	}
	byFP := map[string]Spec{bootFP: bootSpec}

	zero, one := 0, 1
	none, simulate, broadcast := "none", "simulate", "broadcast"
	for _, step := range []struct {
		name string
		req  RebuildRequest
	}{
		{"l0=0 keeps simulate", RebuildRequest{L0: &zero}},
		{"l0=0 broadcast", RebuildRequest{Strategy: &broadcast}},
		{"l0=0 none", RebuildRequest{Strategy: &none}},
		{"l0=1 none", RebuildRequest{L0: &one}},
		{"l0=1 simulate", RebuildRequest{Strategy: &simulate}},
		{"l0=1 broadcast", RebuildRequest{Strategy: &broadcast}},
	} {
		step.req.Shard = "main"
		resp, err := cl.Rebuild(context.Background(), step.req)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		fp, spec := stats()
		if fp != resp.NewFingerprint || spec != resp.Spec {
			t.Fatalf("%s: response says %s %+v, stats say %s %+v", step.name, resp.NewFingerprint, resp.Spec, fp, spec)
		}
		if first, seen := byFP[fp]; seen && first != spec {
			t.Fatalf("%s: tables %s reported as %+v and as %+v", step.name, fp, first, spec)
		}
		byFP[fp] = spec
	}
	if len(byFP) != 3 {
		t.Fatalf("walk saw %d distinct tables, want 3 (none, simulate, broadcast)", len(byFP))
	}
}

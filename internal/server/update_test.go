package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"
)

// oddEdgeChange picks a +1 reweight on an odd-weight edge of the shard's
// serving graph: an odd weight never crosses a multiple of any 2^i when
// incremented, so with the test spec's eps=1 only rounding instance 0 is
// affected and most of the hierarchy is deterministically reused.
func oddEdgeChange(t *testing.T, g *graph.Graph) WireChange {
	t.Helper()
	var c WireChange
	found := false
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		if !found && w%2 == 1 {
			c = WireChange{Op: "reweight", U: u, V: v, W: w + 1}
			found = true
		}
	})
	if !found {
		t.Fatal("test graph has no odd-weight edge")
	}
	return c
}

func TestUpdateDeltaEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sl := srv.slots["main"]
	before := sl.load()
	change := oddEdgeChange(t, before.g)

	var ur UpdateResponse
	resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Shard: "main", Changes: []WireChange{change}, Verify: true,
	}, &ur)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %+v", resp.StatusCode, ur)
	}
	if ur.Path != "delta" {
		t.Fatalf("path = %q (response %+v), want delta", ur.Path, ur)
	}
	if !ur.Verified || !ur.Changed || ur.TopologyChanged || ur.Reweights != 1 {
		t.Fatalf("unexpected update response %+v", ur)
	}
	if ur.InstancesReused == 0 || ur.InstancesRebuilt == 0 ||
		ur.InstancesReused+ur.InstancesRebuilt != ur.InstancesTotal {
		t.Fatalf("implausible delta accounting %+v", ur)
	}
	if ur.Damage <= 0 || ur.Damage > 1 {
		t.Fatalf("damage %v out of (0,1]", ur.Damage)
	}
	if ur.OldFingerprint != before.fp {
		t.Fatalf("old fingerprint %s, want %s", ur.OldFingerprint, before.fp)
	}

	// The published generation is exactly what a from-scratch build on the
	// updated graph produces — the endpoint's correctness contract.
	after := sl.load()
	if after.fp != ur.NewFingerprint {
		t.Fatalf("serving %s but update reported %s", after.fp, ur.NewFingerprint)
	}
	cold, err := scheme.BuildOn(before.spec, after.g)
	if err != nil {
		t.Fatalf("cold BuildOn: %v", err)
	}
	if got := after.inst.Fingerprint(); got != cold.Fingerprint() {
		t.Fatalf("patched tables fingerprint %016x != from-scratch build %016x", got, cold.Fingerprint())
	}

	// Queries now serve the new generation, answers consistent with it.
	probes := []oracle.Query{{V: 1, S: 2}, {V: int32(change.U), S: int32(change.V)}}
	var er EstimateResponse
	if resp := postJSON(t, ts.URL+"/v1/estimate", BatchRequest{
		Shard: "main", Queries: []WireQuery{{V: 1, S: 2}, {V: int32(change.U), S: int32(change.V)}},
	}, &er); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate after update: status %d", resp.StatusCode)
	}
	if er.Fingerprint != ur.NewFingerprint {
		t.Fatalf("estimate stamped %s, want updated generation %s", er.Fingerprint, ur.NewFingerprint)
	}
	want := make([]oracle.Answer, len(probes))
	after.inst.AnswerInto(probes, want, 0)
	for i, a := range er.Answers {
		w := WireAnswer{OK: want[i].OK, Dist: want[i].Est.Dist, Src: want[i].Est.Src,
			Via: want[i].Est.Via, Instance: want[i].Est.Instance, Flag: want[i].Est.Flag}
		if a != w {
			t.Fatalf("answer %d = %+v, want %+v", i, a, w)
		}
	}

	// Stats: the update is counted, attributed to the delta path, and the
	// shard is flagged as drifted from its spec.
	var st StatsResponse
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	derr := json.NewDecoder(resp2.Body).Decode(&st)
	resp2.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	ss := st.Shards["main"]
	if ss.Updates != 1 || ss.DeltaUpdates != 1 || !ss.Mutated || ss.LastUpdateUnixNS == 0 {
		t.Fatalf("stats after delta update: %+v", ss)
	}

	// A rebuild regenerates from the spec and clears the mutated flag.
	if resp := postJSON(t, ts.URL+"/v1/rebuild", RebuildRequest{Shard: "main"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild after update: status %d", resp.StatusCode)
	}
	if sl.mutated.Load() {
		t.Fatal("rebuild did not clear the mutated flag")
	}
	if got, _ := srv.Fingerprint("main"); got != before.fp {
		t.Fatalf("rebuild from spec produced %s, want the original generation %s", got, before.fp)
	}
}

func TestUpdateTopologyChangeTakesRebuildPath(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sl := srv.slots["main"]
	g := sl.load().g
	var change WireChange
	found := false
	for u := 0; u < g.N() && !found; u++ {
		for v := u + 1; v < g.N(); v++ {
			if _, ok := g.EdgeBetween(u, v); !ok {
				change = WireChange{Op: "insert", U: u, V: v, W: 2}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("test graph is complete")
	}
	var ur UpdateResponse
	resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Shard: "main", Changes: []WireChange{change}, Verify: true,
	}, &ur)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %+v", resp.StatusCode, ur)
	}
	if ur.Path != "rebuild" || !ur.TopologyChanged || ur.Inserts != 1 || ur.Damage != 1 {
		t.Fatalf("topology insert must force a verified full rebuild, got %+v", ur)
	}
	if got, _ := srv.Fingerprint("main"); got != ur.NewFingerprint {
		t.Fatalf("serving %s but update reported %s", got, ur.NewFingerprint)
	}
	var st StatsResponse
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	derr := json.NewDecoder(resp2.Body).Decode(&st)
	resp2.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	if ss := st.Shards["main"]; ss.Updates != 1 || ss.DeltaUpdates != 0 || !ss.Mutated {
		t.Fatalf("stats after rebuild-path update: %+v", ss)
	}
}

// TestUpdateHighDamageReweightIsDelta: on ε=1, maxw=4 the bases are 1,
// 2 and 4, so reweighting an edge from 2 to 3 moves the lengths of
// instances 0 and 1 — damage 2/3. There is no cutoff: structure held, so
// the update is a verified delta that reuses the one untouched instance.
// The body still carries the legacy damage_threshold key (0 once forced
// a rebuild), which must be ignored.
func TestUpdateHighDamageReweightIsDelta(t *testing.T) {
	srv, err := New(map[string]Spec{"main": {Topology: "random", N: 96, Eps: 1, MaxW: 4, Seed: 9}}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	var change *WireChange
	srv.slots["main"].load().g.Edges(func(u, v int, w graph.Weight, _ int32) {
		if change == nil && w == 2 {
			change = &WireChange{Op: "reweight", U: u, V: v, W: 3}
		}
	})
	if change == nil {
		t.Fatal("test graph has no weight-2 edge")
	}
	var ur UpdateResponse
	resp := postJSON(t, ts.URL+"/v1/update", map[string]any{
		"shard": "main", "changes": []WireChange{*change}, "verify": true, "damage_threshold": 0,
	}, &ur)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %+v", resp.StatusCode, ur)
	}
	if ur.Path != "delta" || !ur.Verified || ur.InstancesReused < 1 {
		t.Fatalf("want a verified delta reusing >= 1 instance, got %+v", ur)
	}
	if ur.InstancesTotal != 3 || ur.InstancesRebuilt != 2 || ur.Damage <= 0.5 {
		t.Fatalf("2->3 at bases 1,2,4 must rebuild 2 of 3 instances, got %+v", ur)
	}
}

// TestUpdateVerifyRefusesDivergentTables: verify compares the patched
// tables with a from-scratch build, and a difference must keep the old
// generation serving. The divergence is planted in a rounding instance the
// update reuses by pointer (oddEdgeChange re-detects only instance 0), so
// the patched result carries it and the cold build does not.
func TestUpdateVerifyRefusesDivergentTables(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sl := srv.slots["main"]
	before := sl.load()
	change := oddEdgeChange(t, before.g)

	last := before.oracle().Res.Instances[len(before.oracle().Res.Instances)-1]
	v := 0
	for len(last.Det.Lists[v]) == 0 {
		v++
	}
	last.Det.Lists[v][0].Via ^= 1

	resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Shard: "main", Changes: []WireChange{change}, Verify: true,
	}, nil)
	wantErrorEnvelope(t, resp, http.StatusInternalServerError, "update_failed")
	if sl.load() != before {
		t.Fatal("a failed verify published a new generation")
	}
	if sl.mutated.Load() || sl.stats.updates.Load() != 0 {
		t.Fatal("a failed verify was counted as an applied update")
	}

	// The same batch without verify is published: it was the comparison
	// that refused, not the build.
	var ur UpdateResponse
	if resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Shard: "main", Changes: []WireChange{change},
	}, &ur); resp.StatusCode != http.StatusOK || ur.Path != "delta" || ur.InstancesReused == 0 {
		t.Fatalf("unverified update: status %d, response %+v", resp.StatusCode, ur)
	}
}

func TestUpdateErrors(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	g := srv.slots["main"].load().g
	before, _ := srv.Fingerprint("main")
	valid := oddEdgeChange(t, g)

	// A batch severing every edge of one node would disconnect the graph;
	// it must be rejected whole with the tables untouched.
	victim := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) < g.Degree(victim) {
			victim = v
		}
	}
	sever := make([]WireChange, 0, g.Degree(victim))
	for _, e := range g.Neighbors(victim) {
		sever = append(sever, WireChange{Op: "delete", U: victim, V: e.To})
	}

	cases := []struct {
		name   string
		req    UpdateRequest
		status int
		code   string
	}{
		{"unknown shard", UpdateRequest{Shard: "nope", Changes: []WireChange{valid}}, http.StatusNotFound, "unknown_shard"},
		{"empty batch", UpdateRequest{Shard: "main"}, http.StatusBadRequest, "empty_batch"},
		{"bad op", UpdateRequest{Shard: "main", Changes: []WireChange{{Op: "teleport", U: 0, V: 1, W: 2}}}, http.StatusBadRequest, "bad_request"},
		{"reweight missing edge", UpdateRequest{Shard: "main", Changes: []WireChange{{Op: "reweight", U: 0, V: 0, W: 2}}}, http.StatusBadRequest, "bad_request"},
		{"disconnecting delete", UpdateRequest{Shard: "main", Changes: sever}, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/update", tc.req, nil)
			wantErrorEnvelope(t, resp, tc.status, tc.code)
		})
	}
	if after, _ := srv.Fingerprint("main"); after != before {
		t.Fatalf("rejected updates changed the serving generation: %s -> %s", before, after)
	}
	if srv.slots["main"].mutated.Load() {
		t.Fatal("rejected updates set the mutated flag")
	}
}

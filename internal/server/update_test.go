package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/detection"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"
)

// drawn is one change of kind from graph.RandomChanges against g, as a
// wire change.
func drawn(g *graph.Graph, kind graph.ChangeKind) WireChange {
	c := graph.RandomChanges(g, kind, 1, rand.New(rand.NewSource(1)))[0]
	return WireChange{Op: c.Op.String(), U: c.U, V: c.V, W: c.W}
}

// TestUpdateDeltaEndToEnd sends one weight-only /v1/update with verify
// to a shard of every backend — the prebuilt oracle "main" and an rtc and
// a compact shard built from their specs — and follows it through the
// published generation, the answers, /v1/stats and a /v1/rebuild.
func TestUpdateDeltaEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	specs := schemeSpecs()
	hier, err := New(map[string]Spec{"rtc": specs["rtc"], "compact": specs["compact"]}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(hier)
	t.Cleanup(func() {
		hts.Close()
		hier.Close()
	})
	for _, c := range []struct {
		srv        *Server
		url, shard string
	}{{srv, ts.URL, "main"}, {hier, hts.URL, "rtc"}, {hier, hts.URL, "compact"}} {
		t.Run(c.shard, func(t *testing.T) { updateDeltaEndToEnd(t, c.srv, c.url, c.shard) })
	}
}

func updateDeltaEndToEnd(t *testing.T, srv *Server, url, shard string) {
	sl := srv.slots[shard]
	before := sl.load()
	change := drawn(before.g, graph.ChangeNudge)

	var ur UpdateResponse
	resp := postJSON(t, url+"/v1/update", UpdateRequest{
		Shard: shard, Changes: []WireChange{change}, Verify: true,
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
	// Repairs are a share of the rebuilt instances, and a halo that ran
	// is one that was counted.
	if ur.InstancesRepaired < 0 || ur.InstancesRepaired > ur.InstancesRebuilt ||
		(ur.InstancesRepaired == 0 && ur.RepairNodes+ur.RepairRounds+int(ur.RepairMessages) != 0) ||
		(ur.RepairRounds > 0 && ur.RepairNodes == 0) {
		t.Fatalf("implausible repair accounting %+v", ur)
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
	if resp := postJSON(t, url+"/v1/estimate", BatchRequest{
		Shard: shard, Queries: []WireQuery{{V: 1, S: 2}, {V: int32(change.U), S: int32(change.V)}},
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
	resp2, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	derr := json.NewDecoder(resp2.Body).Decode(&st)
	resp2.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	ss := st.Shards[shard]
	if ss.Updates != 1 || ss.DeltaUpdates != 1 || !ss.Mutated || ss.LastUpdateUnixNS == 0 {
		t.Fatalf("stats after delta update: %+v", ss)
	}

	// A rebuild regenerates from the spec and clears the mutated flag.
	if resp := postJSON(t, url+"/v1/rebuild", map[string]any{"shard": shard}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild after update: status %d", resp.StatusCode)
	}
	if sl.mutated.Load() {
		t.Fatal("rebuild did not clear the mutated flag")
	}
	if got, _ := srv.Fingerprint(shard); got != before.fp {
		t.Fatalf("rebuild from spec produced %s, want the original generation %s", got, before.fp)
	}
}

func TestUpdateTopologyChangeTakesRebuildPath(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sl := srv.slots["main"]
	change := drawn(sl.load().g, graph.ChangeInsert)
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
// update reuses by pointer (one AffectedInstances leaves out), at an entry
// that a row the update moves takes from that instance. The reused
// instance's digest was memoized when its generation was published, so
// the tampering reaches the fingerprint through that row, which the
// patched build lays afresh and the cold build does not share. The
// shard is a partial sweep: on APSP tables instance 0 is exact and
// supplies every combined entry.
func TestUpdateVerifyRefusesDivergentTables(t *testing.T) {
	partial := testSpec
	partial.H, partial.Sigma = 1, 32
	sh, err := buildShard(partial)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{}, Prebuilt{Name: "partial", Spec: sh.spec, G: sh.g, Res: sh.oracle().Res})
	sl := srv.slots["partial"]
	before := sl.load()
	change := drawn(before.g, graph.ChangeNudge)
	g2, _, err := before.g.ApplyChanges([]graph.Change{{Op: graph.OpReweight, U: change.U, V: change.V, W: change.W}})
	if err != nil {
		t.Fatal(err)
	}

	res := before.oracle().Res
	next, _, err := core.Build(g2, res.Params, congest.Config{}, res)
	if err != nil {
		t.Fatal(err)
	}
	affected := core.AffectedInstances(g2, res)
	plant := func() bool {
		for v, list := range next.Lists {
			for _, e := range list {
				if !next.RowMoved(v) || affected[e.Instance] {
					continue
				}
				det := res.Instances[e.Instance].Det
				for i, d := range det.List(v, nil) {
					if d.Src == e.Src {
						pg := &det.Pages[v>>detection.PageShift]
						pg.Vias[pg.Off[v&(detection.PageRows-1)]+int32(i)] ^= 1
						return true
					}
				}
			}
		}
		return false
	}
	if !plant() {
		t.Fatal("no combined entry comes from a reused instance")
	}

	resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Shard: "partial", Changes: []WireChange{change}, Verify: true,
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
		Shard: "partial", Changes: []WireChange{change},
	}, &ur); resp.StatusCode != http.StatusOK || ur.Path != "delta" || ur.InstancesReused == 0 {
		t.Fatalf("unverified update: status %d, response %+v", resp.StatusCode, ur)
	}
}

func TestUpdateErrors(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	g := srv.slots["main"].load().g
	before, _ := srv.Fingerprint("main")
	valid := drawn(g, graph.ChangeNudge)

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

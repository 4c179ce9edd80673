package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"pde/internal/oracle"
	"pde/internal/setdist"
)

// TestCloseRejectsRequestsWith503 pins the shutdown contract: a point
// query arriving after Close gets the shutting_down envelope — a 5xx a
// coordinator fails over on — not a hang and not an answer.
func TestCloseRejectsRequestsWith503(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.Close()
	resp := postJSON(t, ts.URL+"/v1/estimate", BatchRequest{
		Shard: "main", Queries: []WireQuery{{V: 1, S: 2}},
	}, nil)
	wantErrorEnvelope(t, resp, http.StatusServiceUnavailable, "shutting_down")
}

// TestRebuildFailureNeverFollowsPublish pins the /v1/rebuild ordering
// fix: a rebuild whose built tables cannot be verified (or built at all)
// must answer with build_failed while the slot still serves the old
// generation — the error may never be written after a swap has already
// published new tables. eps=1e-20 passes Spec.Validate (> 0) but fails
// in core (1+ε == 1 at float64 resolution), exercising the failure leg
// end to end.
func TestRebuildFailureNeverFollowsPublish(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	before, _ := srv.Fingerprint("main")

	eps := 1e-20
	resp := postJSON(t, ts.URL+"/v1/rebuild", RebuildRequest{Shard: "main", Eps: &eps}, nil)
	wantErrorEnvelope(t, resp, http.StatusInternalServerError, "build_failed")

	after, _ := srv.Fingerprint("main")
	if after != before {
		t.Fatalf("failed rebuild changed the serving generation: %s -> %s", before, after)
	}
	var er EstimateResponse
	ok := postJSON(t, ts.URL+"/v1/estimate", BatchRequest{
		Shard: "main", Queries: []WireQuery{{V: 1, S: 2}},
	}, &er)
	if ok.StatusCode != http.StatusOK || er.Fingerprint != before {
		t.Fatalf("shard not serving the old generation after failed rebuild: status %d, fp %s (want %s)",
			ok.StatusCode, er.Fingerprint, before)
	}
}

// TestChurnAllEndpointsUnderRebuilds is the generation-coherence check
// for every read endpoint at once, run under -race in CI: estimate,
// nexthop, route and setdist readers hammer one shard while an admin
// loop rebuilds it back and forth between two sizes — including the
// shrinking direction, which used to drive validated queries out of
// bounds at answer time. Every 200 response must be bit-consistent with
// the table generation its fingerprint names; 400 out_of_range is legal
// only for the probe set that exceeds the small generation.
func TestChurnAllEndpointsUnderRebuilds(t *testing.T) {
	big := Spec{Topology: "random", N: 48, Eps: 1, MaxW: 4, Seed: 1}
	small := big
	small.N = 24
	small.Seed = 2
	shBig, err := buildShard(big)
	if err != nil {
		t.Fatal(err)
	}
	shSmall, err := buildShard(small)
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]*shard{shBig.fp: shBig, shSmall.fp: shSmall}

	// Probes valid in both generations (ids < small.N) get strict
	// answer checks everywhere; the estimate reader also fires a wide set
	// with big-only ids to keep the shrink window under load.
	narrow := make([]oracle.Query, 0, 32)
	for i := 0; i < 32; i++ {
		narrow = append(narrow, oracle.Query{V: int32((i * 5) % small.N), S: int32((i * 7) % small.N)})
	}
	wide := make([]oracle.Query, 0, 32)
	for i := 0; i < 32; i++ {
		wide = append(wide, oracle.Query{V: int32((i * 3) % big.N), S: int32((i*11 + 40) % big.N)})
	}

	expectAns := make(map[string][]oracle.Answer, 2)
	expectHops := make(map[string][]Hop, 2)
	type routeLeg struct {
		weight int64
		hops   int
	}
	routePairs := []WirePair{{From: 0, To: 17}, {From: 5, To: 22}, {From: 21, To: 8}}
	expectRoutes := make(map[string][]routeLeg, 2)
	setA, setB := []int32{0, 3, 9, 14}, []int32{5, 11, 20}
	type setDistGolden struct {
		ab, ba    setdist.Aggregates
		hausdorff float64
	}
	expectSetDist := make(map[string]setDistGolden, 2)
	for _, sh := range []*shard{shBig, shSmall} {
		out := make([]oracle.Answer, len(narrow))
		sh.inst.AnswerInto(narrow, out, 0)
		expectAns[sh.fp] = out
		hops := make([]Hop, len(narrow))
		for i, q := range narrow {
			switch {
			case q.V == q.S:
				hops[i] = Hop{Next: q.V, OK: true}
			case out[i].OK && out[i].Est.Via >= 0:
				hops[i] = Hop{Next: out[i].Est.Via, OK: true}
			default:
				hops[i] = Hop{Next: -1, OK: false}
			}
		}
		expectHops[sh.fp] = hops
		legs := make([]routeLeg, len(routePairs))
		for i, p := range routePairs {
			rt, err := sh.inst.Route(int(p.From), p.To)
			if err != nil {
				t.Fatalf("generation %s: route %d->%d: %v", sh.fp, p.From, p.To, err)
			}
			legs[i] = routeLeg{weight: int64(rt.Weight), hops: len(rt.Path)}
		}
		expectRoutes[sh.fp] = legs
		res, err := setdist.Eval(sh.inst, setA, setB, setdist.Options{})
		if err != nil {
			t.Fatalf("generation %s: setdist: %v", sh.fp, err)
		}
		expectSetDist[sh.fp] = setDistGolden{ab: res.AB, ba: res.BA, hausdorff: res.Hausdorff}
	}

	srv, err := NewWithPrebuilt(Config{}, Prebuilt{Name: "main", Spec: big, G: shBig.g, Res: shBig.oracle().Res})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := ts.Client()

	var (
		stop    atomic.Bool
		served  atomic.Int64
		wg      sync.WaitGroup
		failure atomic.Pointer[string]
	)
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failure.CompareAndSwap(nil, &msg)
		stop.Store(true)
	}
	reader := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := fn(); err != nil {
					fail("%v", err)
					return
				}
				served.Add(1)
			}
		}()
	}

	// Estimate reader: binary codec, wide probes, 400 allowed.
	wideBody := EncodeQueries(wide)
	reader(func() error {
		resp, err := client.Post(ts.URL+"/v1/estimate?shard=main", ContentTypeBinary, bytes.NewReader(wideBody))
		if err != nil {
			return fmt.Errorf("estimate POST: %w", err)
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return fmt.Errorf("estimate body: %w", rerr)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			fp := resp.Header.Get("X-Pde-Fingerprint")
			sh, known := gens[fp]
			if !known {
				return fmt.Errorf("estimate fingerprint %q is neither generation", fp)
			}
			got, derr := DecodeAnswers(data)
			if derr != nil {
				return fmt.Errorf("decode answers: %w", derr)
			}
			want := make([]oracle.Answer, len(wide))
			sh.inst.AnswerInto(wide, want, 0)
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("estimate %d inconsistent with stamped generation %s: got %+v want %+v", i, fp, got[i], want[i])
				}
			}
		case http.StatusBadRequest:
			// wide ids validated against the small snapshot at ingress.
		default:
			return fmt.Errorf("estimate status %d: %s", resp.StatusCode, data)
		}
		return nil
	})

	// Nexthop reader: JSON, narrow probes, must always be 200.
	nhQueries := make([]WireQuery, len(narrow))
	for i, q := range narrow {
		nhQueries[i] = WireQuery{V: q.V, S: q.S}
	}
	nhBody, _ := json.Marshal(BatchRequest{Shard: "main", Queries: nhQueries})
	reader(func() error {
		resp, err := client.Post(ts.URL+"/v1/nexthop", "application/json", bytes.NewReader(nhBody))
		if err != nil {
			return fmt.Errorf("nexthop POST: %w", err)
		}
		var nr NexthopResponse
		derr := json.NewDecoder(resp.Body).Decode(&nr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("nexthop dropped during swap: status %d", resp.StatusCode)
		}
		if derr != nil {
			return fmt.Errorf("nexthop decode: %w", derr)
		}
		want, known := expectHops[nr.Fingerprint]
		if !known {
			return fmt.Errorf("nexthop fingerprint %q is neither generation", nr.Fingerprint)
		}
		for i := range want {
			if nr.Hops[i] != want[i] {
				return fmt.Errorf("hop %d inconsistent with stamped generation %s: got %+v want %+v", i, nr.Fingerprint, nr.Hops[i], want[i])
			}
		}
		return nil
	})

	// Route reader: JSON, narrow pairs, must always be 200.
	rtBody, _ := json.Marshal(RouteRequest{Shard: "main", Pairs: routePairs})
	reader(func() error {
		resp, err := client.Post(ts.URL+"/v1/route", "application/json", bytes.NewReader(rtBody))
		if err != nil {
			return fmt.Errorf("route POST: %w", err)
		}
		var rr RouteResponse
		derr := json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("route dropped during swap: status %d", resp.StatusCode)
		}
		if derr != nil {
			return fmt.Errorf("route decode: %w", derr)
		}
		want, known := expectRoutes[rr.Fingerprint]
		if !known {
			return fmt.Errorf("route fingerprint %q is neither generation", rr.Fingerprint)
		}
		for i, leg := range want {
			got := rr.Routes[i]
			if !got.OK || int64(got.Weight) != leg.weight || len(got.Path) != leg.hops {
				return fmt.Errorf("route %d inconsistent with stamped generation %s: got %+v want %+v", i, rr.Fingerprint, got, leg)
			}
		}
		return nil
	})

	// SetDist reader: JSON, narrow sets, must always be 200. Pruning
	// accounting may legally vary with worker scheduling; the aggregates
	// are exact.
	sdBody, _ := json.Marshal(SetDistRequest{Shard: "main", A: setA, B: setB})
	sameAgg := func(w WireAggregates, a setdist.Aggregates) bool {
		if w.Members != a.Members || w.Unreachable != a.Unreachable || w.Finite != a.Finite() {
			return false
		}
		if !w.Finite {
			return w.Chamfer == -1 && w.Hausdorff == -1 && w.MeanMin == -1
		}
		return w.Chamfer == a.Chamfer && w.Hausdorff == a.Hausdorff && w.MeanMin == a.MeanMin
	}
	reader(func() error {
		resp, err := client.Post(ts.URL+"/v1/setdist", "application/json", bytes.NewReader(sdBody))
		if err != nil {
			return fmt.Errorf("setdist POST: %w", err)
		}
		var sr SetDistResponse
		derr := json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("setdist dropped during swap: status %d", resp.StatusCode)
		}
		if derr != nil {
			return fmt.Errorf("setdist decode: %w", derr)
		}
		want, known := expectSetDist[sr.Fingerprint]
		if !known {
			return fmt.Errorf("setdist fingerprint %q is neither generation", sr.Fingerprint)
		}
		wantH, wantFinite := want.hausdorff, !math.IsInf(want.hausdorff, 1)
		if !wantFinite {
			wantH = -1
		}
		if !sameAgg(sr.AB, want.ab) || !sameAgg(sr.BA, want.ba) ||
			sr.Hausdorff != wantH || sr.HausdorffFinite != wantFinite {
			return fmt.Errorf("setdist inconsistent with stamped generation %s: got %+v", sr.Fingerprint, sr)
		}
		return nil
	})

	for cycle := 0; cycle < 20 && !stop.Load(); cycle++ {
		spec := small
		if cycle%2 == 1 {
			spec = big
		}
		reqBody, _ := json.Marshal(RebuildRequest{Shard: "main", N: &spec.N, Seed: &spec.Seed})
		resp, err := client.Post(ts.URL+"/v1/rebuild", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatalf("cycle %d: rebuild: %v", cycle, err)
		}
		var rb RebuildResponse
		err = json.NewDecoder(resp.Body).Decode(&rb)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("cycle %d: rebuild status %d err %v", cycle, resp.StatusCode, err)
		}
		if _, known := gens[rb.NewFingerprint]; !known {
			t.Fatalf("cycle %d: rebuild produced unknown generation %s", cycle, rb.NewFingerprint)
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := failure.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if served.Load() == 0 {
		t.Fatal("readers served no requests — the race window never opened")
	}
	t.Logf("served %d endpoint requests across 20 shrink/grow rebuilds", served.Load())
}

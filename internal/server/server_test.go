package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pde/internal/oracle"
)

// testSpec is a small, fast-building shard every end-to-end test shares.
var testSpec = Spec{Topology: "random", N: 32, Eps: 1, MaxW: 4, Seed: 9}

// newTestServer boots a daemon with one shard "main" (plus any extras)
// behind httptest and returns it with its base URL.
func newTestServer(t *testing.T, cfg Config, extra ...Prebuilt) (*Server, *httptest.Server) {
	t.Helper()
	sh, err := buildShard(testSpec)
	if err != nil {
		t.Fatalf("building test shard: %v", err)
	}
	shards := append([]Prebuilt{{Name: "main", Spec: sh.spec, G: sh.g, Res: sh.oracle().Res, BuildNS: sh.buildNS}}, extra...)
	srv, err := NewWithPrebuilt(cfg, shards...)
	if err != nil {
		t.Fatalf("NewWithPrebuilt: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postJSON fires a JSON POST and decodes the response body into out
// (which may be nil to skip decoding). It returns the raw response.
func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response of %s: %v", url, err)
		}
	}
	return resp
}

// wantErrorEnvelope asserts the exact status code and error code.
func wantErrorEnvelope(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d", resp.StatusCode, status)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v", err)
	}
	if env.Error.Code != code {
		t.Fatalf("error code = %q, want %q (message %q)", env.Error.Code, code, env.Error.Message)
	}
	if env.Error.Message == "" {
		t.Fatalf("error envelope %q has an empty message", code)
	}
}

// TestEstimateEndToEnd drives /v1/estimate (JSON) and checks every answer
// against the in-process oracle the shard serves from.
func TestEstimateEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sh := srv.slots["main"].load()
	n := sh.g.N()

	req := BatchRequest{Shard: "main"}
	for v := int32(0); v < int32(n); v++ {
		for s := int32(0); s < int32(n); s++ {
			req.Queries = append(req.Queries, WireQuery{V: v, S: s})
		}
	}
	var resp EstimateResponse
	raw := postJSON(t, ts.URL+"/v1/estimate", &req, &resp)
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", raw.StatusCode)
	}
	if resp.Shard != "main" || resp.Fingerprint != sh.fp {
		t.Fatalf("response identifies (%q, %s), want (main, %s)", resp.Shard, resp.Fingerprint, sh.fp)
	}
	if len(resp.Answers) != len(req.Queries) {
		t.Fatalf("got %d answers for %d queries", len(resp.Answers), len(req.Queries))
	}
	for i, q := range req.Queries {
		e, ok := sh.oracle().O.Estimate(int(q.V), q.S)
		want := WireAnswer{OK: ok, Dist: e.Dist, Src: e.Src, Via: e.Via, Instance: e.Instance, Flag: e.Flag}
		if resp.Answers[i] != want {
			t.Fatalf("answer %d (%d->%d): got %+v, want %+v", i, q.V, q.S, resp.Answers[i], want)
		}
	}
}

// TestEstimateBinaryEndToEnd drives the same queries through the binary
// batch codec and checks byte-level agreement with the oracle.
func TestEstimateBinaryEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sh := srv.slots["main"].load()
	n := sh.g.N()

	qs := make([]oracle.Query, 0, n*n)
	for v := int32(0); v < int32(n); v++ {
		for s := int32(0); s < int32(n); s++ {
			qs = append(qs, oracle.Query{V: v, S: s})
		}
	}
	resp, err := http.Post(ts.URL+"/v1/estimate?shard=main", ContentTypeBinary, bytes.NewReader(EncodeQueries(qs)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, ContentTypeBinary) {
		t.Fatalf("response content type = %q, want %q", ct, ContentTypeBinary)
	}
	if fp := resp.Header.Get("X-Pde-Fingerprint"); fp != sh.fp {
		t.Fatalf("X-Pde-Fingerprint = %s, want %s", fp, sh.fp)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	answers, err := DecodeAnswers(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding answers: %v", err)
	}
	want := make([]oracle.Answer, len(qs))
	sh.oracle().O.AnswerAll(qs, want)
	for i := range want {
		if answers[i] != want[i] {
			t.Fatalf("answer %d diverges: got %+v, want %+v", i, answers[i], want[i])
		}
	}
}

// TestNextHopEndToEnd checks /v1/nexthop against the oracle's NextHop,
// including the v == s terminal convention, over JSON and binary.
func TestNextHopEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sh := srv.slots["main"].load()
	n := sh.g.N()

	req := BatchRequest{Shard: "main"}
	for v := int32(0); v < int32(n); v++ {
		for s := int32(0); s < int32(n); s++ {
			req.Queries = append(req.Queries, WireQuery{V: v, S: s})
		}
	}
	var resp NexthopResponse
	raw := postJSON(t, ts.URL+"/v1/nexthop", &req, &resp)
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", raw.StatusCode)
	}
	check := func(hops []Hop) {
		t.Helper()
		if len(hops) != len(req.Queries) {
			t.Fatalf("got %d hops for %d queries", len(hops), len(req.Queries))
		}
		for i, q := range req.Queries {
			next, ok := sh.oracle().O.NextHop(int(q.V), q.S)
			want := Hop{Next: int32(next), OK: ok}
			if hops[i] != want {
				t.Fatalf("hop %d (%d->%d): got %+v, want %+v", i, q.V, q.S, hops[i], want)
			}
		}
	}
	check(resp.Hops)

	binResp, err := http.Post(ts.URL+"/v1/nexthop?shard=main", ContentTypeBinary,
		bytes.NewReader(EncodeQueries(queriesOf(req.Queries))))
	if err != nil {
		t.Fatalf("binary POST: %v", err)
	}
	defer binResp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(binResp.Body); err != nil {
		t.Fatalf("reading binary body: %v", err)
	}
	hops, err := DecodeHops(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding hops: %v", err)
	}
	check(hops)
}

func queriesOf(ws []WireQuery) []oracle.Query {
	qs := make([]oracle.Query, len(ws))
	for i, w := range ws {
		qs[i] = oracle.Query{V: w.V, S: w.S}
	}
	return qs
}

// TestRouteEndToEnd expands every pair through /v1/route and checks the
// paths and weights against the in-process router, then re-requests to
// exercise the LRU (answers must be identical and flagged cached).
func TestRouteEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sh := srv.slots["main"].load()
	n := sh.g.N()

	req := RouteRequest{Shard: "main"}
	for v := int32(0); v < int32(n); v += 3 {
		for s := int32(0); s < int32(n); s += 5 {
			req.Pairs = append(req.Pairs, WirePair{From: v, To: s})
		}
	}
	var first RouteResponse
	raw := postJSON(t, ts.URL+"/v1/route", &req, &first)
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", raw.StatusCode)
	}
	for i, p := range req.Pairs {
		rt, err := sh.oracle().Rtr.Route(int(p.From), p.To)
		got := first.Routes[i]
		if err != nil {
			if got.OK {
				t.Fatalf("route %d->%d: server delivered but local router failed: %v", p.From, p.To, err)
			}
			continue
		}
		if !got.OK {
			t.Fatalf("route %d->%d: server failed (%s) but local router delivered", p.From, p.To, got.Error)
		}
		if got.Weight != rt.Weight || len(got.Path) != len(rt.Path) {
			t.Fatalf("route %d->%d: got weight=%d hops=%d, want weight=%d hops=%d",
				p.From, p.To, got.Weight, len(got.Path), rt.Weight, len(rt.Path))
		}
		if got.Cached {
			t.Fatalf("route %d->%d: first expansion reported cached", p.From, p.To)
		}
	}

	var second RouteResponse
	postJSON(t, ts.URL+"/v1/route", &req, &second)
	for i := range first.Routes {
		f, s := first.Routes[i], second.Routes[i]
		if f.OK != s.OK || f.Weight != s.Weight || len(f.Path) != len(s.Path) {
			t.Fatalf("route %d: cached answer diverges: %+v vs %+v", i, f, s)
		}
		if f.OK && !s.Cached {
			t.Fatalf("route %d: second expansion missed the cache", i)
		}
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	cache := st.Shards["main"].RouteCache
	if cache.Hits == 0 || cache.HitRate <= 0 {
		t.Fatalf("route cache reported no hits after identical re-request: %+v", cache)
	}
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response of %s: %v", url, err)
		}
	}
	return resp
}

// TestErrorEnvelopes pins the exact status code and machine-readable
// error code of every failure mode of every endpoint.
func TestErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 8})
	n := testSpec.N

	oversized := BatchRequest{Shard: "main"}
	for i := 0; i < 9; i++ {
		oversized.Queries = append(oversized.Queries, WireQuery{V: 0, S: 0})
	}
	oversizedPairs := RouteRequest{Shard: "main"}
	for i := 0; i < 9; i++ {
		oversizedPairs.Pairs = append(oversizedPairs.Pairs, WirePair{})
	}

	cases := []struct {
		name   string
		do     func() *http.Response
		status int
		code   string
	}{
		{"estimate/GET", func() *http.Response { return get(t, ts.URL+"/v1/estimate") }, 405, "method_not_allowed"},
		{"estimate/malformed JSON", func() *http.Response { return post(t, ts.URL+"/v1/estimate", "application/json", "{oops") }, 400, "bad_request"},
		{"estimate/unknown shard", func() *http.Response {
			return postAny(t, ts.URL+"/v1/estimate", BatchRequest{Shard: "nope", Queries: []WireQuery{{V: 0, S: 1}}})
		}, 404, "unknown_shard"},
		{"estimate/empty batch", func() *http.Response {
			return postAny(t, ts.URL+"/v1/estimate", BatchRequest{Shard: "main"})
		}, 400, "empty_batch"},
		{"estimate/v out of range", func() *http.Response {
			return postAny(t, ts.URL+"/v1/estimate", BatchRequest{Shard: "main", Queries: []WireQuery{{V: int32(n), S: 0}}})
		}, 400, "out_of_range"},
		{"estimate/negative s", func() *http.Response {
			return postAny(t, ts.URL+"/v1/estimate", BatchRequest{Shard: "main", Queries: []WireQuery{{V: 0, S: -1}}})
		}, 400, "out_of_range"},
		{"estimate/oversized", func() *http.Response { return postAny(t, ts.URL+"/v1/estimate", oversized) }, 413, "batch_too_large"},
		{"estimate/giant JSON body", func() *http.Response {
			// Far past the byte cap: must be rejected mid-decode by
			// MaxBytesReader, not allocated wholesale then counted.
			var b strings.Builder
			b.WriteString(`{"shard":"main","queries":[`)
			for i := 0; i < 50_000; i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(`{"v":1,"s":2}`)
			}
			b.WriteString(`]}`)
			return post(t, ts.URL+"/v1/estimate", "application/json", b.String())
		}, 413, "batch_too_large"},
		{"estimate/binary no shard param", func() *http.Response {
			return post(t, ts.URL+"/v1/estimate", ContentTypeBinary, string(EncodeQueries([]oracle.Query{{V: 0, S: 1}})))
		}, 400, "bad_request"},
		{"estimate/binary bad magic", func() *http.Response {
			return post(t, ts.URL+"/v1/estimate?shard=main", ContentTypeBinary, "XXXX\x01\x00\x00\x00\x00\x00\x00\x00")
		}, 400, "bad_request"},
		{"estimate/binary truncated", func() *http.Response {
			frame := EncodeQueries([]oracle.Query{{V: 0, S: 1}, {V: 1, S: 2}})
			return post(t, ts.URL+"/v1/estimate?shard=main", ContentTypeBinary, string(frame[:len(frame)-3]))
		}, 400, "bad_request"},
		{"estimate/binary oversized", func() *http.Response {
			qs := make([]oracle.Query, 9)
			return post(t, ts.URL+"/v1/estimate?shard=main", ContentTypeBinary, string(EncodeQueries(qs)))
		}, 413, "batch_too_large"},
		{"nexthop/GET", func() *http.Response { return get(t, ts.URL+"/v1/nexthop") }, 405, "method_not_allowed"},
		{"nexthop/unknown shard", func() *http.Response {
			return postAny(t, ts.URL+"/v1/nexthop", BatchRequest{Shard: "ghost", Queries: []WireQuery{{V: 0, S: 1}}})
		}, 404, "unknown_shard"},
		{"route/GET", func() *http.Response { return get(t, ts.URL+"/v1/route") }, 405, "method_not_allowed"},
		{"route/malformed JSON", func() *http.Response { return post(t, ts.URL+"/v1/route", "application/json", "[") }, 400, "bad_request"},
		{"route/unknown shard", func() *http.Response {
			return postAny(t, ts.URL+"/v1/route", RouteRequest{Shard: "nope", Pairs: []WirePair{{From: 0, To: 1}}})
		}, 404, "unknown_shard"},
		{"route/empty batch", func() *http.Response {
			return postAny(t, ts.URL+"/v1/route", RouteRequest{Shard: "main"})
		}, 400, "empty_batch"},
		{"route/out of range", func() *http.Response {
			return postAny(t, ts.URL+"/v1/route", RouteRequest{Shard: "main", Pairs: []WirePair{{From: 0, To: int32(n)}}})
		}, 400, "out_of_range"},
		{"route/oversized", func() *http.Response { return postAny(t, ts.URL+"/v1/route", oversizedPairs) }, 413, "batch_too_large"},
		{"rebuild/GET", func() *http.Response { return get(t, ts.URL+"/v1/rebuild") }, 405, "method_not_allowed"},
		{"rebuild/malformed JSON", func() *http.Response { return post(t, ts.URL+"/v1/rebuild", "application/json", "nope") }, 400, "bad_request"},
		{"rebuild/unknown shard", func() *http.Response {
			return postAny(t, ts.URL+"/v1/rebuild", RebuildRequest{Shard: "ghost"})
		}, 404, "unknown_shard"},
		{"rebuild/invalid eps", func() *http.Response {
			bad := -1.0
			return postAny(t, ts.URL+"/v1/rebuild", RebuildRequest{Shard: "main", Eps: &bad})
		}, 400, "bad_request"},
		{"rebuild/invalid topology", func() *http.Response {
			bad := "moebius"
			return postAny(t, ts.URL+"/v1/rebuild", RebuildRequest{Shard: "main", Topology: &bad})
		}, 400, "bad_request"},
		{"stats/POST", func() *http.Response { return post(t, ts.URL+"/v1/stats", "application/json", "{}") }, 405, "method_not_allowed"},
		{"healthz/POST", func() *http.Response { return post(t, ts.URL+"/healthz", "application/json", "{}") }, 405, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantErrorEnvelope(t, tc.do(), tc.status, tc.code)
		})
	}
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func post(t *testing.T, url, contentType, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func postAny(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return post(t, url, "application/json", string(data))
}

// TestRebuildHotSwap exercises the admin path: a seed override must
// produce a different fingerprint, an identical spec the same one, and
// queries must keep working across the swap.
func TestRebuildHotSwap(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	fp0, _ := srv.Fingerprint("main")

	seed := int64(10)
	var swapped RebuildResponse
	raw := postJSON(t, ts.URL+"/v1/rebuild", RebuildRequest{Shard: "main", Seed: &seed}, &swapped)
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("rebuild status = %d, want 200", raw.StatusCode)
	}
	if swapped.OldFingerprint != fp0 {
		t.Fatalf("old fingerprint = %s, want %s", swapped.OldFingerprint, fp0)
	}
	if !swapped.Changed || swapped.NewFingerprint == fp0 {
		t.Fatalf("seed override did not change the tables: %+v", swapped)
	}
	if fp, _ := srv.Fingerprint("main"); fp != swapped.NewFingerprint {
		t.Fatalf("served fingerprint %s != rebuilt %s", fp, swapped.NewFingerprint)
	}
	if swapped.Spec.Seed != seed || swapped.Spec.Topology != testSpec.Topology {
		t.Fatalf("spec did not merge overrides: %+v", swapped.Spec)
	}

	// Queries flow against the new generation and carry its fingerprint.
	var est EstimateResponse
	postJSON(t, ts.URL+"/v1/estimate", BatchRequest{Shard: "main", Queries: []WireQuery{{V: 1, S: 2}}}, &est)
	if est.Fingerprint != swapped.NewFingerprint {
		t.Fatalf("post-swap answer fingerprint %s, want %s", est.Fingerprint, swapped.NewFingerprint)
	}

	// Rebuilding with an unchanged spec is deterministic: same tables.
	var same RebuildResponse
	postJSON(t, ts.URL+"/v1/rebuild", RebuildRequest{Shard: "main"}, &same)
	if same.Changed || same.NewFingerprint != swapped.NewFingerprint {
		t.Fatalf("identical spec rebuilt different tables: %+v", same)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if got := st.Shards["main"].Builds; got != 3 {
		t.Fatalf("builds = %d, want 3 (initial + 2 rebuilds)", got)
	}
}

// TestRebuildRequestKeysMatchSpec keeps the typed client body and the
// handler's overlay from drifting: /v1/rebuild decodes the body onto the
// current scheme.Spec, so every override RebuildRequest can carry must
// be a Spec key of the same type, and every Spec key must be offered.
func TestRebuildRequestKeysMatchSpec(t *testing.T) {
	keys := func(typ reflect.Type, deref bool) map[string]reflect.Type {
		out := map[string]reflect.Type{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			ft := f.Type
			if deref && ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			out[name] = ft
		}
		return out
	}
	req := keys(reflect.TypeOf(RebuildRequest{}), true)
	if _, ok := req["shard"]; !ok {
		t.Fatal("RebuildRequest lost its shard key")
	}
	delete(req, "shard")
	if spec := keys(reflect.TypeOf(Spec{}), false); !reflect.DeepEqual(req, spec) {
		t.Fatalf("RebuildRequest keys minus shard = %v, Spec keys = %v", req, spec)
	}
}

// TestHealthzAndStats checks the liveness body and that the serving
// counters actually count.
func TestHealthzAndStats(t *testing.T) {
	sh2, err := buildShard(Spec{Topology: "ring", N: 16, Eps: 1, MaxW: 4, Seed: 2})
	if err != nil {
		t.Fatalf("second shard: %v", err)
	}
	_, ts := newTestServer(t, Config{},
		Prebuilt{Name: "ring16", Spec: sh2.spec, G: sh2.g, Res: sh2.oracle().Res, BuildNS: sh2.buildNS})

	var health HealthResponse
	raw := getJSON(t, ts.URL+"/healthz", &health)
	if raw.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", raw.StatusCode, health)
	}
	if want := []string{"main", "ring16"}; fmt.Sprint(health.Shards) != fmt.Sprint(want) {
		t.Fatalf("healthz shards = %v, want %v", health.Shards, want)
	}

	postJSON(t, ts.URL+"/v1/estimate", BatchRequest{Shard: "ring16",
		Queries: []WireQuery{{V: 0, S: 5}, {V: 3, S: 1}}}, nil)
	postJSON(t, ts.URL+"/v1/nexthop", BatchRequest{Shard: "ring16",
		Queries: []WireQuery{{V: 2, S: 2}}}, nil)
	postJSON(t, ts.URL+"/v1/route", RouteRequest{Shard: "ring16",
		Pairs: []WirePair{{From: 0, To: 8}}}, nil)

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	r16 := st.Shards["ring16"]
	if r16.Queries.Estimate != 2 || r16.Queries.NextHop != 1 || r16.Queries.Route != 1 || r16.Queries.Total != 4 {
		t.Fatalf("ring16 query counters = %+v", r16.Queries)
	}
	if r16.Batches.Flushes == 0 || r16.Batches.Queries != 3 || r16.Batches.MaxQueries < 2 {
		t.Fatalf("ring16 batch counters = %+v", r16.Batches)
	}
	if r16.N != 16 || r16.Fingerprint == "" || r16.Builds != 1 || r16.OracleEntries == 0 {
		t.Fatalf("ring16 shard status = %+v", r16)
	}
	if r16.QPS <= 0 {
		t.Fatalf("ring16 qps = %g, want > 0", r16.QPS)
	}
	if main := st.Shards["main"]; main.Queries.Total != 0 {
		t.Fatalf("main shard counted ring16 traffic: %+v", main.Queries)
	}
	if st.GoMaxProcs < 1 || st.UptimeNS <= 0 {
		t.Fatalf("stats header = %+v", st)
	}
}

// TestRequestsAreNotCoalesced pins the one-call-per-request execution
// model through the counters consumers read: N concurrent single-query
// clients are N AnswerInto calls, so /v1/stats must report exactly N
// requests, N flushes and N point lookups — under any interleaving.
func TestRequestsAreNotCoalesced(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const clients = 8
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			var resp EstimateResponse
			data, _ := json.Marshal(BatchRequest{Shard: "main",
				Queries: []WireQuery{{V: int32(c % testSpec.N), S: int32((c * 3) % testSpec.N)}}})
			r, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			defer r.Body.Close()
			errs <- json.NewDecoder(r.Body).Decode(&resp)
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	main := st.Shards["main"]
	b := main.Batches
	if b.Requests != clients || b.Flushes != clients {
		t.Fatalf("batches: requests=%d flushes=%d, want both %d", b.Requests, b.Flushes, clients)
	}
	if b.Queries != clients || main.Queries.Estimate != clients {
		t.Fatalf("batches.queries=%d queries.estimate=%d, want both %d", b.Queries, main.Queries.Estimate, clients)
	}
	if b.AvgQueries != 1 || b.MaxQueries != 1 {
		t.Fatalf("single-query requests report avg=%g max=%d, want 1 and 1", b.AvgQueries, b.MaxQueries)
	}
}

// TestServerOwnsNoGoroutines pins "no goroutine per shard": a daemon
// that has been built, has served requests and has been closed runs
// exactly the goroutines the process ran before it existed — while it
// serves, not only after Close. Requests go through ServeHTTP directly
// so no listener or connection goroutine muddies the count.
func TestServerOwnsNoGoroutines(t *testing.T) {
	// Earlier tests leave keep-alive connections behind and build workers
	// exit on their own schedule, so counts are read once they stop
	// falling, and the daemon may only ever not add to them.
	http.DefaultClient.CloseIdleConnections()
	settled := func(want int) int {
		got := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); got > want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return got
	}
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()
	ring := testSpec
	ring.Topology, ring.N = "ring", 16
	srv, err := New(map[string]Spec{"main": testSpec, "ring16": ring}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, shard string) int {
		body, _ := json.Marshal(BatchRequest{Shard: shard, Queries: []WireQuery{{V: 1, S: 2}, {V: 3, S: 3}}})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code
	}
	for _, shard := range srv.Shards() {
		for _, path := range []string{"/v1/estimate", "/v1/nexthop"} {
			if code := post(path, shard); code != http.StatusOK {
				t.Fatalf("%s on %s: status %d", path, shard, code)
			}
		}
	}
	if got := settled(before); got > before {
		t.Fatalf("a serving daemon with 2 shards runs %d goroutines, the process ran %d before it", got, before)
	}
	srv.Close()
	if code := post("/v1/estimate", "main"); code != http.StatusServiceUnavailable {
		t.Fatalf("estimate after Close: status %d, want 503", code)
	}
	if got := settled(before); got > before {
		t.Fatalf("after Close %d goroutines run, the process ran %d before New", got, before)
	}
}

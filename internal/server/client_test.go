package server

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"pde/internal/oracle"
)

// TestClientAgainstLiveServer drives every Client method against a live
// daemon — the same client pde-query and benchmark/ use, so its wire
// handling is covered where the protocol lives.
func TestClientAgainstLiveServer(t *testing.T) {
	ctx := context.Background()
	srv, ts := newTestServer(t, Config{})
	sh := srv.slots["main"].load()
	cl := &Client{BaseURL: ts.URL, Shard: "main", HTTP: ts.Client()}

	qs := []oracle.Query{{V: 0, S: 5}, {V: 3, S: 3}, {V: 7, S: 1}}
	want := make([]oracle.Answer, len(qs))
	sh.oracle().O.AnswerAll(qs, want)

	for _, asJSON := range []bool{false, true} {
		answers, fp, err := cl.Estimate(ctx, qs, asJSON)
		if err != nil {
			t.Fatalf("Estimate(json=%v): %v", asJSON, err)
		}
		if fp != sh.fp {
			t.Fatalf("Estimate(json=%v) fingerprint = %s, want %s", asJSON, fp, sh.fp)
		}
		for i := range want {
			if answers[i] != want[i] {
				t.Fatalf("Estimate(json=%v) answer %d = %+v, want %+v", asJSON, i, answers[i], want[i])
			}
		}

		hops, fp, err := cl.NextHop(ctx, qs, asJSON)
		if err != nil {
			t.Fatalf("NextHop(json=%v): %v", asJSON, err)
		}
		if fp != sh.fp {
			t.Fatalf("NextHop(json=%v) fingerprint = %s", asJSON, fp)
		}
		for i, q := range qs {
			next, ok := sh.oracle().O.NextHop(int(q.V), q.S)
			if (hops[i] != Hop{Next: int32(next), OK: ok}) {
				t.Fatalf("NextHop(json=%v) hop %d = %+v, want {%d %v}", asJSON, i, hops[i], next, ok)
			}
		}
	}

	routes, err := cl.Route(ctx, []WirePair{{From: 2, To: 9}, {From: 4, To: 4}})
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if routes.Fingerprint != sh.fp || len(routes.Routes) != 2 {
		t.Fatalf("Route response: %+v", routes)
	}
	if rt, err := sh.oracle().Route(2, 9); err == nil {
		if !routes.Routes[0].OK || routes.Routes[0].Weight != rt.Weight {
			t.Fatalf("route 2->9 = %+v, want weight %d", routes.Routes[0], rt.Weight)
		}
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Shards["main"].Queries.Estimate != 2*int64(len(qs)) {
		t.Fatalf("stats counted %d estimate queries, want %d", st.Shards["main"].Queries.Estimate, 2*len(qs))
	}

	h, err := cl.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("Health: %+v, %v", h, err)
	}

	seed := int64(77)
	rb, err := cl.Rebuild(ctx, map[string]any{"seed": seed})
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if !rb.Changed || rb.OldFingerprint != sh.fp {
		t.Fatalf("Rebuild response: %+v", rb)
	}
	if _, fp, err := cl.Estimate(ctx, qs, false); err != nil || fp != rb.NewFingerprint {
		t.Fatalf("post-rebuild Estimate fp = %s (err %v), want %s", fp, err, rb.NewFingerprint)
	}
}

// TestClientErrorSurfacing checks that the client turns error envelopes
// into errors carrying the server's code and message.
func TestClientErrorSurfacing(t *testing.T) {
	ctx := context.Background()
	_, ts := newTestServer(t, Config{})

	ghost := &Client{BaseURL: ts.URL, Shard: "ghost", HTTP: ts.Client()}
	if _, _, err := ghost.Estimate(ctx, []oracle.Query{{V: 0, S: 1}}, false); err == nil || !strings.Contains(err.Error(), "unknown_shard") {
		t.Fatalf("binary estimate against ghost shard: %v", err)
	}
	if _, _, err := ghost.Estimate(ctx, []oracle.Query{{V: 0, S: 1}}, true); err == nil || !strings.Contains(err.Error(), "unknown_shard") {
		t.Fatalf("json estimate against ghost shard: %v", err)
	}
	if _, _, err := ghost.NextHop(ctx, []oracle.Query{{V: 0, S: 1}}, false); err == nil || !strings.Contains(err.Error(), "unknown_shard") {
		t.Fatalf("nexthop against ghost shard: %v", err)
	}
	if _, err := ghost.Route(ctx, []WirePair{{From: 0, To: 1}}); err == nil || !strings.Contains(err.Error(), "unknown_shard") {
		t.Fatalf("route against ghost shard: %v", err)
	}
	if _, err := ghost.Rebuild(ctx, nil); err == nil || !strings.Contains(err.Error(), "unknown_shard") {
		t.Fatalf("rebuild against ghost shard: %v", err)
	}

	main := &Client{BaseURL: ts.URL, Shard: "main", HTTP: ts.Client()}
	if _, _, err := main.Estimate(ctx, []oracle.Query{{V: -1, S: 0}}, false); err == nil || !strings.Contains(err.Error(), "out_of_range") {
		t.Fatalf("out-of-range estimate: %v", err)
	}

	// A dead endpoint surfaces as a transport error, not a hang.
	dead := httptest.NewServer(nil)
	dead.Close()
	gone := &Client{BaseURL: dead.URL, Shard: "main"}
	if _, err := gone.Stats(ctx); err == nil {
		t.Fatal("Stats against a closed server did not error")
	}
	if _, err := gone.Health(ctx); err == nil {
		t.Fatal("Health against a closed server did not error")
	}
}

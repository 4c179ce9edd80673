package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pde/internal/oracle"
	"pde/internal/server"
)

// quietPolicy is testPolicy with the prober effectively off, so only the
// request paths under test can change a daemon's health.
var quietPolicy = func() policy {
	p := testPolicy
	p.probeInterval = time.Hour
	return p
}()

// fleet is two replicas of hot, each behind a front that can watch,
// delay or refuse what reaches it, and a coordinator over the fronts.
type fleet struct {
	daemons []*testDaemon
	fronts  []*httptest.Server // what the coordinator knows the daemons as
	coord   *Coordinator
	cts     *httptest.Server
	primary atomic.Int32 // index of hot's first replica
}

// bootFleet starts a fleet under quietPolicy. Each front first offers a
// request to intercept with the daemon's index, and passes it on to the
// daemon unless intercept answered it.
func bootFleet(t *testing.T, intercept func(i int, w http.ResponseWriter, r *http.Request) bool) *fleet {
	t.Helper()
	f := &fleet{daemons: bootDaemons(t, []map[string]server.Spec{{"hot": hotSpec}, {"hot": hotSpec}})}
	f.primary.Store(-1)
	for i, d := range f.daemons {
		front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if intercept == nil || !intercept(i, w, r) {
				d.srv.ServeHTTP(w, r)
			}
		}))
		t.Cleanup(front.Close)
		f.fronts = append(f.fronts, front)
	}
	urls := []string{f.url(0), f.url(1)}
	coord, err := New(Config{Daemons: urls, policy: quietPolicy})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.coord = coord
	f.primary.Store(int32(slices.Index(urls, coord.Placement("hot")[0])))
	f.cts = httptest.NewServer(coord)
	t.Cleanup(func() {
		f.cts.Close()
		coord.Close()
	})
	return f
}

func (f *fleet) url(i int) string { return f.fronts[i].URL }

func (f *fleet) isPrimary(i int) bool { return int32(i) == f.primary.Load() }

// healthy is the coordinator's view of daemon i.
func (f *fleet) healthy(i int) bool {
	for _, b := range f.coord.backends {
		if b.url == f.url(i) {
			return b.healthy.Load()
		}
	}
	panic("not a front of this fleet")
}

// post sends one admin request through the coordinator and returns its
// status, headers and body.
func (f *fleet) post(t *testing.T, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(f.cts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// TestAdminFailurePaths: what the coordinator answers when a replica
// refuses, when it cannot be reached, and when every replica agrees.
func TestAdminFailurePaths(t *testing.T) {
	const rebuild = `{"shard": "hot", "seed": 41}`

	t.Run("a replica's error envelope fails the propagation and leaves it up", func(t *testing.T) {
		var f *fleet
		f = bootFleet(t, func(i int, w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path != "/v1/rebuild" || f.isPrimary(i) {
				return false
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			w.Write([]byte(`{"error": {"code": "busy", "message": "refusing on purpose"}}`))
			return true
		})
		refuser := f.url(1 - int(f.primary.Load()))
		status, _, body := f.post(t, "/v1/rebuild", rebuild)
		var env server.ErrorEnvelope
		json.Unmarshal(body, &env)
		if status != http.StatusBadGateway || env.Error.Code != "propagation_failed" ||
			!strings.Contains(env.Error.Message, refuser+": HTTP 409") || !strings.Contains(env.Error.Message, "refusing on purpose") {
			t.Fatalf("got %d %s, want 502 propagation_failed naming %s", status, body, refuser)
		}
		if !f.healthy(0) || !f.healthy(1) {
			t.Fatalf("a daemon that answered was marked down: %v, %v", f.healthy(0), f.healthy(1))
		}
	})

	t.Run("an unreachable replica fails the propagation and is marked down", func(t *testing.T) {
		f := bootFleet(t, nil)
		gone := 1 - int(f.primary.Load())
		f.fronts[gone].Listener.Close()
		f.fronts[gone].CloseClientConnections()
		status, _, body := f.post(t, "/v1/rebuild", rebuild)
		var env server.ErrorEnvelope
		json.Unmarshal(body, &env)
		if status != http.StatusBadGateway || env.Error.Code != "propagation_failed" || !strings.Contains(env.Error.Message, f.url(gone)) {
			t.Fatalf("got %d %s, want 502 propagation_failed naming %s", status, body, f.url(gone))
		}
		if f.healthy(gone) || !f.healthy(1-gone) {
			t.Fatalf("health after the failed propagation: unreachable %v, primary %v; want false, true", f.healthy(gone), f.healthy(1-gone))
		}
	})

	t.Run("success relays the primary's reply byte for byte", func(t *testing.T) {
		var f *fleet
		var primaryReply atomic.Pointer[[]byte]
		f = bootFleet(t, func(i int, w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path != "/v1/rebuild" || !f.isPrimary(i) {
				return false
			}
			rec := httptest.NewRecorder()
			f.daemons[i].srv.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			primaryReply.Store(&body)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
			return true
		})
		status, h, body := f.post(t, "/v1/rebuild", rebuild)
		if status != http.StatusOK || h.Get("X-Pde-Replicas") != "2" || h.Get("X-Pde-Backend") != f.url(int(f.primary.Load())) {
			t.Fatalf("got %d, X-Pde-Replicas %q, X-Pde-Backend %q: %s", status, h.Get("X-Pde-Replicas"), h.Get("X-Pde-Backend"), body)
		}
		if want := primaryReply.Load(); want == nil || !bytes.Equal(body, *want) {
			t.Fatalf("relayed body\n%s\nis not the primary's reply\n%s", body, *want)
		}
	})
}

// TestAdminPropagationOutlivesTheClient: a client that hangs up once the
// first replica has applied a rebuild must not leave the second one on
// the old tables. The propagation finishes without it, every replica
// lands on one fingerprint, and nobody is marked down.
func TestAdminPropagationOutlivesTheClient(t *testing.T) {
	clientCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	coordCtx := make(chan context.Context, 1) // the coordinator's side of the client's request
	var f *fleet
	f = bootFleet(t, func(i int, w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path != "/v1/rebuild" || !f.isPrimary(i) {
			return false
		}
		f.daemons[i].srv.ServeHTTP(w, r)
		hangUp()
		select {
		case <-(<-coordCtx).Done():
		case <-time.After(10 * time.Second):
			t.Error("the coordinator never saw the client hang up")
		}
		return true
	})
	cts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		coordCtx <- r.Context()
		f.coord.ServeHTTP(w, r)
	}))

	seed := int64(41)
	cl := &server.Client{BaseURL: cts.URL, Shard: "hot"}
	if _, err := cl.Rebuild(clientCtx, map[string]any{"seed": seed}); !errors.Is(err, context.Canceled) {
		t.Fatalf("rebuild = %v, want the client's own cancellation", err)
	}
	cts.Close() // waits for the coordinator's handler to return

	fp0, _ := f.daemons[0].srv.Fingerprint("hot")
	fp1, _ := f.daemons[1].srv.Fingerprint("hot")
	if fp0 != fp1 {
		t.Fatalf("the hang-up split the fleet: replicas serve %s and %s", fp0, fp1)
	}
	if !f.healthy(0) || !f.healthy(1) {
		t.Fatalf("health after the hang-up: %v, %v; want both up", f.healthy(0), f.healthy(1))
	}
}

// TestClientDeadlineLeavesReplicasHealthy: a query client whose own
// deadline expires while a slow replica works has left; the replica did
// nothing wrong, so it is neither marked down nor counted as a failover.
func TestClientDeadlineLeavesReplicasHealthy(t *testing.T) {
	f := bootFleet(t, func(_ int, _ http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/v1/estimate" {
			time.Sleep(200 * time.Millisecond)
		}
		return false
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	cl := &server.Client{BaseURL: f.cts.URL, Shard: "hot"}
	if _, _, err := cl.Estimate(ctx, []oracle.Query{{V: 1, S: 2}}, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("estimate = %v, want the client's own deadline", err)
	}
	f.cts.Close() // waits for the coordinator's handler to return

	if !f.healthy(0) || !f.healthy(1) || f.coord.failovers.Load() != 0 {
		t.Fatalf("after the client's deadline: healthy %v, %v, failovers %d; want true, true, 0",
			f.healthy(0), f.healthy(1), f.coord.failovers.Load())
	}
}

package server

// Fault-injection coverage for the wire client: daemons that hang, lie
// about Content-Length, truncate bodies, or error mid-stream. The
// cluster coordinator retries through this client, so "fails fast with
// a real error" here is what "fails over" means there.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pde/internal/oracle"
	"pde/internal/par"
)

// TestClientRejectsOversizedAnnouncedResponse: a daemon announcing a
// body above the cap must fail the call before any allocation, not
// make([]byte, whatever-the-server-said).
func TestClientRejectsOversizedAnnouncedResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "1099511627776") // claims 1 TiB
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	cl := &Client{BaseURL: ts.URL, Shard: "main", HTTP: ts.Client(), maxResponse: 1 << 20}
	_, _, err := cl.Estimate(context.Background(), []oracle.Query{{V: 0, S: 1}}, false)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("1 TiB announcement got %v, want a cap error", err)
	}
}

// TestClientRejectsOversizedChunkedResponse: with no Content-Length the
// client must stop buffering at the cap instead of reading forever.
func TestClientRejectsOversizedChunkedResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fl := w.(http.Flusher)
		chunk := make([]byte, 64<<10)
		for i := 0; i < 40; i++ { // 2.5 MiB, chunked
			if _, err := w.Write(chunk); err != nil {
				return
			}
			fl.Flush()
		}
	}))
	defer ts.Close()

	cl := &Client{BaseURL: ts.URL, Shard: "main", HTTP: ts.Client(), maxResponse: 1 << 20}
	_, err := cl.Stats(context.Background())
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized chunked response got %v, want a cap error", err)
	}
}

// TestClientSurfacesTruncatedBody: a daemon that promises 4096 bytes
// and hangs up after 10 must produce a read error, not a short silent
// success. The handler hijacks the connection to write the raw
// truncated response, so nothing pads or repairs it.
func TestClientSurfacesTruncatedBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, bw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(bw, "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: 4096\r\n\r\n", ContentTypeBinary)
		bw.WriteString("truncated!")
		bw.Flush()
	}))
	defer ts.Close()

	cl := &Client{BaseURL: ts.URL, Shard: "main", HTTP: ts.Client()}
	_, _, err := cl.Estimate(context.Background(), []oracle.Query{{V: 0, S: 1}}, false)
	if err == nil {
		t.Fatal("truncated body did not error")
	}
}

// TestClientContextCancelsHungDaemon: a daemon that accepts the request
// and never answers must fail the call when the caller's context
// expires — with http.DefaultClient this call would block forever.
func TestClientContextCancelsHungDaemon(t *testing.T) {
	// The handler drains the body so the server can watch the connection,
	// then hangs. The unblock channel releases it at teardown: with the
	// body unread the server cannot detect the client's disconnect, and
	// ts.Close would wait on the handler forever.
	unblock := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-unblock:
		}
	}))
	defer ts.Close()
	defer close(unblock) // runs before ts.Close, releasing the handler

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	cl := &Client{BaseURL: ts.URL, Shard: "main"} // default hardened client
	t0 := time.Now()
	_, _, err := cl.Estimate(ctx, []oracle.Query{{V: 0, S: 1}}, false)
	if err == nil {
		t.Fatal("hung daemon did not error")
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("call against a hung daemon took %v to fail; the deadline is not wired through", elapsed)
	}
}

// TestFleetStopsOnServerError drives a par.For fleet of clients, as
// pde-query does, against a daemon that starts failing mid-stream and
// checks the fleet actually stops: the error surfaces with the server's
// envelope code and the batches claimed after it stay unserved.
func TestFleetStopsOnServerError(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 3 {
			WriteError(w, http.StatusServiceUnavailable, "shutting_down", "daemon is draining")
			return
		}
		w.Header().Set("Content-Type", ContentTypeBinary)
		w.Write(EncodeAnswers([]oracle.Answer{{OK: false}}))
	}))
	defer ts.Close()

	const clients, batches = 2, 64
	cls := make([]*Client, clients)
	for i := range cls {
		cls[i] = &Client{BaseURL: ts.URL, Shard: "main", HTTP: ts.Client()}
	}
	var attempted atomic.Int64
	err := par.For(clients, batches, func(c, i int) error {
		attempted.Add(1)
		_, _, err := cls[c].Estimate(context.Background(), []oracle.Query{{V: 0, S: 1}}, false)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "shutting_down") {
		t.Fatalf("fleet error = %v, want the daemon's shutting_down envelope", err)
	}
	// The two in-flight workers may each lose one more batch to the race
	// with the first error, but the fleet must not have drained all 64.
	if n := attempted.Load(); n >= batches {
		t.Fatalf("fleet attempted all %d batches after the daemon started failing", n)
	}
}

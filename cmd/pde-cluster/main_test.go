package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pde/internal/cluster"
	"pde/internal/oracle"
	"pde/internal/server"
	"pde/internal/wire"
)

// The tests boot the coordinator the way main does — run(ctx, args, …) —
// on ephemeral ports in front of in-process daemons, find the bound
// addresses in its log, and drive it over loopback: the local twin of what
// CI's cluster-smoke job does to the binary.

var apspSpec = server.Spec{Topology: "random", N: 24, Eps: 1, MaxW: 4, Seed: 2}

// bootDaemon starts one pde-serve stand-in (both planes) serving shard
// "main" and returns its base URL.
func bootDaemon(t *testing.T) string {
	t.Helper()
	srv, err := server.New(map[string]server.Spec{"main": apspSpec}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.Serve(ln, srv, wire.Config{})
	srv.SetWireAddr(ws.Addr())
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ws.Close()
	})
	return ts.URL
}

// syncLog is the coordinator's stderr: written by run's goroutine, read by
// the test's.
type syncLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// after returns what follows marker on its log line, "" if no line has it.
func (l *syncLog) after(marker string) string {
	_, rest, ok := strings.Cut(l.String(), marker)
	if !ok {
		return ""
	}
	line, _, _ := strings.Cut(rest, "\n")
	return line
}

// proc is one in-process coordinator.
type proc struct {
	cancel context.CancelFunc
	exit   chan int
	log    *syncLog
	base   string // http://host:port of the API
}

// boot starts run(args) and waits until the API listens. The coordinator
// is stopped when the test ends, if the test has not already done so.
func boot(t *testing.T, args ...string) *proc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	p := &proc{cancel: cancel, exit: make(chan int, 1), log: &syncLog{}}
	go func() { p.exit <- run(ctx, args, io.Discard, p.log) }()
	t.Cleanup(func() { p.stop(t) })
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if addr := p.log.after("pde-cluster: listening on "); addr != "" {
			p.base = "http://" + addr
			return p
		}
		select {
		case code := <-p.exit:
			p.exit <- code
			t.Fatalf("coordinator exited %d before serving:\n%s", code, p.log)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never listened:\n%s", p.log)
		}
	}
}

// stop cancels the coordinator's context and returns its exit code.
func (p *proc) stop(t *testing.T) int {
	t.Helper()
	p.cancel()
	select {
	case code := <-p.exit:
		p.exit <- code
		return code
	case <-time.After(20 * time.Second):
		t.Errorf("coordinator did not stop:\n%s", p.log)
		return -1
	}
}

// busyAddr is a loopback address something else is already listening on.
func busyAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestFlagsToConfig: every flag lands in the cluster.Config field it
// names, and unset flags leave the zero value the coordinator defaults.
func TestFlagsToConfig(t *testing.T) {
	got, err := parse([]string{"-addr", "a:1", "-wire-addr", "b:2", "-pprof-addr", "c:3", "-daemons", "http://x,http://y",
		"-probe-interval", "200ms", "-probe-timeout", "3s", "-attempt-timeout", "4s", "-admin-timeout", "5m",
		"-retries", "-1", "-retry-backoff", "6ms"}, io.Discard)
	want := options{addr: "a:1", wireAddr: "b:2", pprofAddr: "c:3", cfg: cluster.Config{
		Daemons:       []string{"http://x", "http://y"},
		ProbeInterval: 200 * time.Millisecond, ProbeTimeout: 3 * time.Second,
		AttemptTimeout: 4 * time.Second, AdminTimeout: 5 * time.Minute,
		Retries: -1, RetryBackoff: 6 * time.Millisecond}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("flags parsed to\n%+v (%v), want\n%+v", got, err, want)
	}
	got, err = parse([]string{"-daemons", "http://x"}, io.Discard)
	want = options{addr: ":7480", cfg: cluster.Config{Daemons: []string{"http://x"}}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("defaults parsed to\n%+v (%v), want\n%+v", got, err, want)
	}
}

// TestBootFrontsTheFleet boots on :0 over two daemons named sloppily — a
// duplicate and a trailing comma — and checks the coordinator against its
// flags: the banner counts the daemons it really fronts (the regression:
// the parent printed len(strings.Split(-daemons)), 4 here), /v1/cluster
// lists them, the relay is advertised under the address it bound, both
// planes answer, and pprof is on its own listener.
func TestBootFrontsTheFleet(t *testing.T) {
	d1, d2 := bootDaemon(t), bootDaemon(t)
	p := boot(t, "-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0",
		"-probe-interval", "50ms", "-daemons", d1+","+d2+"/,"+d1+",")
	if got := p.log.after("pde-cluster: fronting "); got != "2 daemon(s)" {
		t.Errorf("banner says fronting %q, the coordinator fronts 2 daemon(s)\n%s", got, p.log)
	}
	status, err := cluster.FetchStatus(context.Background(), p.base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Daemons) != 2 || len(status.Shards["main"].Replicas) != 2 || !status.Shards["main"].Agree {
		t.Errorf("/v1/cluster: %+v", status)
	}

	hc := &server.Client{BaseURL: p.base, Shard: "main"}
	st, err := hc.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	relayAddr := p.log.after("pde-cluster: PDE2 wire protocol on ")
	if relayAddr == "" || strings.HasSuffix(relayAddr, ":0") || st.WireAddr != relayAddr {
		t.Errorf("/v1/stats advertises wire_addr %q, the relay bound %q", st.WireAddr, relayAddr)
	}
	qs := []oracle.Query{{V: 1, S: 2}, {V: 3, S: 4}}
	viaHTTP, fp, err := hc.Estimate(context.Background(), qs, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Bind("main"); err != nil {
		t.Fatal(err)
	}
	viaRelay := make([]oracle.Answer, len(qs))
	raw, err := c.Estimate(qs, viaRelay)
	if err != nil || fmt.Sprintf("%016x", raw) != fp || !reflect.DeepEqual(viaRelay, viaHTTP) {
		t.Errorf("relay answered %+v (fp %016x, %v), HTTP plane %+v (fp %s)", viaRelay, raw, err, viaHTTP, fp)
	}

	pprofURL := p.log.after("pde-cluster: pprof on ")
	for url, want := range map[string]int{pprofURL: http.StatusOK, p.base + "/debug/pprof/": http.StatusNotFound} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", url, resp.StatusCode, want)
		}
	}
}

// TestUsageAndBootFailures: a bad command line exits 2 and a boot that
// cannot complete exits 1, both before anything serves.
func TestUsageAndBootFailures(t *testing.T) {
	d := bootDaemon(t)
	for _, tc := range []struct {
		name string
		args []string
		code int
		err  string
	}{
		{"help", []string{"-help"}, 0, "Usage of pde-cluster"},
		{"unknown flag", []string{"-daemons", d, "-replicas", "2"}, 2, "flag provided but not defined"},
		{"no daemons", nil, 2, "-daemons is required"},
		{"only commas", []string{"-daemons", ", ,"}, 1, "no daemons configured"},
		{"unreachable daemon", []string{"-daemons", "http://" + busyAddr(t), "-probe-timeout", "200ms"}, 1, "unreachable at boot"},
		{"busy addr", []string{"-daemons", d, "-addr", busyAddr(t)}, 1, "address already in use"},
		{"busy wire-addr", []string{"-daemons", d, "-addr", "127.0.0.1:0", "-wire-addr", busyAddr(t)}, 1, "address already in use"},
		{"busy pprof-addr", []string{"-daemons", d, "-addr", "127.0.0.1:0", "-pprof-addr", busyAddr(t)}, 1, "address already in use"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log syncLog
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if code := run(ctx, tc.args, io.Discard, &log); code != tc.code {
				t.Errorf("exit %d, want %d", code, tc.code)
			}
			if !strings.Contains(log.String(), tc.err) || strings.Contains(log.String(), "listening on") {
				t.Errorf("stderr wants %q and no listening line:\n%s", tc.err, &log)
			}
		})
	}
}

// TestDrainOrder: on cancel the coordinator stops accepting, lets the
// request in flight finish through its replica, and only then closes the
// relay; run returns 0.
func TestDrainOrder(t *testing.T) {
	p := boot(t, "-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0", "-daemons", bootDaemon(t))
	host := strings.TrimPrefix(p.base, "http://")
	relayAddr := p.log.after("pde-cluster: PDE2 wire protocol on ")

	// In flight before the cancel: an estimate whose body is half sent.
	inflight, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer inflight.Close()
	body := `{"shard": "main", "queries": [{"v": 1, "s": 2}]}`
	req := fmt.Sprintf("POST /v1/estimate HTTP/1.1\r\nHost: pde\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	if _, err := io.WriteString(inflight, req[:len(req)-5]); err != nil {
		t.Fatal(err)
	}

	p.cancel()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		nc, err := net.Dial("tcp", host)
		if err != nil {
			break // Shutdown has begun: the listener refuses
		}
		nc.Close()
		if time.Now().After(deadline) {
			t.Fatal("HTTP listener still accepts after cancel")
		}
	}
	// HTTP is still draining, so the relay still serves and run has not
	// returned.
	c, err := wire.Dial(relayAddr)
	if err != nil {
		t.Fatalf("relay closed before HTTP drained: %v", err)
	}
	defer c.Close()
	if _, _, err := c.Bind("main"); err != nil {
		t.Errorf("relay bind while HTTP drains: %v", err)
	}
	select {
	case code := <-p.exit:
		t.Fatalf("run returned %d with a request in flight", code)
	default:
	}

	if _, err := io.WriteString(inflight, req[len(req)-5:]); err != nil {
		t.Fatal(err)
	}
	inflight.SetReadDeadline(time.Now().Add(20 * time.Second))
	buf := make([]byte, 1<<12)
	n, err := io.ReadAtLeast(inflight, buf, 12)
	if err != nil || !strings.HasPrefix(string(buf[:n]), "HTTP/1.1 200") {
		t.Errorf("in-flight estimate: %v\n%s", err, buf[:n])
	}
	if code := p.stop(t); code != 0 {
		t.Errorf("exit %d after draining:\n%s", code, p.log)
	}
	if err := c.Ping(); err == nil {
		t.Error("relay connection survived the coordinator's exit")
	}
	if _, err := net.Dial("tcp", relayAddr); err == nil {
		t.Error("relay still accepts after run returned")
	}
}

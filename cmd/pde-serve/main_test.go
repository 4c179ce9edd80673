package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pde/internal/oracle"
	"pde/internal/server"
	"pde/internal/wire"
)

// The tests boot the daemon the way main does — run(ctx, args, …) — on
// ephemeral ports, find the bound addresses in its log, and drive it over
// loopback; TestSIGTERMDrainsAndExitsZero runs main in a child process.
// With cmd/pde-query's tests they are the serving stack's smoke test.

// syncLog is the daemon's stderr: written by run's goroutine, read by the
// test's.
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

// proc is one in-process daemon.
type proc struct {
	cancel context.CancelFunc
	exit   chan int
	log    *syncLog
	base   string // http://host:port of the API
}

// boot starts run(args) and waits until the API listens. The daemon is
// stopped when the test ends, if the test has not already done so.
func boot(t *testing.T, args ...string) *proc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	p := &proc{cancel: cancel, exit: make(chan int, 1), log: &syncLog{}}
	go func() { p.exit <- run(ctx, args, io.Discard, p.log) }()
	t.Cleanup(func() { p.stop(t) })
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if addr := p.log.after("pde-serve: listening on "); addr != "" {
			p.base = "http://" + addr
			return p
		}
		select {
		case code := <-p.exit:
			p.exit <- code
			t.Fatalf("daemon exited %d before serving:\n%s", code, p.log)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened:\n%s", p.log)
		}
	}
}

// stop cancels the daemon's context and returns its exit code.
func (p *proc) stop(t *testing.T) int {
	t.Helper()
	p.cancel()
	select {
	case code := <-p.exit:
		p.exit <- code
		return code
	case <-time.After(20 * time.Second):
		t.Errorf("daemon did not stop:\n%s", p.log)
		return -1
	}
}

func (p *proc) stats(t *testing.T) *server.StatsResponse {
	t.Helper()
	st, err := (&server.Client{BaseURL: p.base}).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
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

// tinyShards is a one-shard -shards value that builds in milliseconds.
const tinyShards = `{"main": {"topology": "ring", "n": 8, "eps": 0.5, "maxw": 16, "seed": 1}}`

// TestFlagsToSpecs: every flag lands in the field it names, and -shards
// is the whole of what is served.
func TestFlagsToSpecs(t *testing.T) {
	got, err := parse([]string{"-addr", "a:1", "-wire-addr", "b:2", "-pprof-addr", "c:3", "-max-batch", "99",
		"-shards", `{"main": {"scheme": "compact", "topology": "ring", "n": 40, "eps": 0.25, "maxw": 7, "seed": 11,
		                      "build_workers": 3, "k": 3, "strategy": "broadcast", "l0": 1}}`}, io.Discard)
	want := options{addr: "a:1", wireAddr: "b:2", pprofAddr: "c:3", maxBatch: 99, specs: map[string]server.Spec{
		"main": {Scheme: "compact", Topology: "ring", N: 40, Eps: 0.25, MaxW: 7, Seed: 11,
			BuildWorkers: 3, K: 3, Strategy: "broadcast", L0: 1}}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("compact flags parsed to\n%+v (%v), want\n%+v", got, err, want)
	}

	got, err = parse([]string{"-shards",
		`{"a": {"topology": "grid", "n": 16, "eps": 1, "maxw": 2, "seed": 4, "h": 3, "sigma": 2},
		  "b": {"scheme": "rtc", "topology": "random", "n": 24, "eps": 0.5, "maxw": 8, "k": 2, "sample_prob": 0.25}}`}, io.Discard)
	wantSpecs := map[string]server.Spec{
		"a": {Topology: "grid", N: 16, Eps: 1, MaxW: 2, Seed: 4, H: 3, Sigma: 2},
		"b": {Scheme: "rtc", Topology: "random", N: 24, Eps: 0.5, MaxW: 8, K: 2, SampleProb: 0.25}}
	if err != nil || !reflect.DeepEqual(got.specs, wantSpecs) {
		t.Errorf("-shards parsed to\n%+v (%v), want\n%+v", got.specs, err, wantSpecs)
	}
}

// TestNoFlagsServeTheDefaultShard: a bare pde-serve serves what it served
// when the spec had flags of its own — one APSP oracle shard "main" on the
// 256-node random graph of seed 1 — and with no -wire-addr a daemon
// advertises no PDE2 endpoint.
func TestNoFlagsServeTheDefaultShard(t *testing.T) {
	got, err := parse(nil, io.Discard)
	want := server.Spec{Scheme: "oracle", Topology: "random", N: 256, Eps: 0.5, MaxW: 16, Seed: 1}
	if err != nil || got.addr != ":7475" || len(got.specs) != 1 || got.specs["main"].Normalized() != want {
		t.Errorf("no flags parsed to %+v (%v), want one shard main = %+v on :7475", got, err, want)
	}

	st := boot(t, "-addr", "127.0.0.1:0", "-shards", tinyShards).stats(t)
	if len(st.Shards) != 1 || st.WireAddr != "" {
		t.Errorf("daemon serves %+v and advertises wire_addr %q without -wire-addr", st.Shards, st.WireAddr)
	}
}

// TestBootServesWhatTheFlagsSay boots on :0 and checks the running daemon
// against its flags: the shards of -shards, one per scheme, with their
// specs, the PDE2 endpoint advertised under the address it really bound,
// pprof on its own listener only, and -max-batch enforced on both
// transports.
func TestBootServesWhatTheFlagsSay(t *testing.T) {
	p := boot(t, "-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0", "-max-batch", "8",
		"-shards", `{"main": {"topology": "ring", "n": 12, "eps": 1, "maxw": 3, "seed": 5},
		             "rtc":  {"scheme": "rtc", "topology": "random", "n": 16, "eps": 0.5, "maxw": 4, "seed": 2, "k": 2},
		             "compact": {"scheme": "compact", "topology": "random", "n": 16, "eps": 0.5, "maxw": 4, "seed": 3, "k": 3}}`)
	st := p.stats(t)
	if len(st.Shards) != 3 || st.Shards["main"].N != 12 || st.Shards["main"].Spec.Topology != "ring" ||
		st.Shards["rtc"].Scheme != "rtc" || st.Shards["rtc"].Spec.K != 2 || st.Shards["compact"].Scheme != "compact" {
		t.Errorf("daemon serves %+v", st.Shards)
	}
	wireAddr := p.log.after("pde-serve: PDE2 wire protocol on ")
	if wireAddr == "" || strings.HasSuffix(wireAddr, ":0") || st.WireAddr != wireAddr {
		t.Errorf("/v1/stats advertises wire_addr %q, the PDE2 listener bound %q", st.WireAddr, wireAddr)
	}

	// -max-batch bounds a request on both transports: 8 pass, 9 do not.
	qs := make([]oracle.Query, 9)
	c, err := wire.Dial(st.WireAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, _, err := c.Bind("main"); err != nil || n != 12 {
		t.Fatalf("bind over PDE2: n=%d, %v", n, err)
	}
	if _, err := c.Estimate(qs[:8], make([]oracle.Answer, 8)); err != nil {
		t.Errorf("8 queries over PDE2: %v", err)
	}
	var re *wire.RemoteError
	if _, err := c.Estimate(qs, make([]oracle.Answer, 9)); !errors.As(err, &re) || re.Code != wire.ErrCodeTooLarge {
		t.Errorf("9 queries over PDE2 with -max-batch 8: %v, want batch_too_large", err)
	}
	hc := &server.Client{BaseURL: p.base, Shard: "main"}
	if _, _, err := hc.Estimate(context.Background(), qs[:8], false); err != nil {
		t.Errorf("8 queries over HTTP: %v", err)
	}
	if _, _, err := hc.Estimate(context.Background(), qs, false); err == nil || !strings.Contains(err.Error(), "batch_too_large, HTTP 413") {
		t.Errorf("9 queries over HTTP with -max-batch 8: %v, want 413 batch_too_large", err)
	}

	// pprof is up on its own listener, never on the serving port.
	pprofURL := p.log.after("pde-serve: pprof on ")
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

	if code := p.stop(t); code != 0 {
		t.Errorf("exit %d after a clean cancel:\n%s", code, p.log)
	}
}

// TestUsageAndBootFailures: a bad command line exits 2 and a boot that
// cannot complete exits 1, both before anything serves. The -pprof-addr
// row is the regression: the parent daemon logged the failed bind from a
// goroutine and served on without its profiler.
func TestUsageAndBootFailures(t *testing.T) {
	tiny := []string{"-addr", "127.0.0.1:0", "-shards", tinyShards}
	with := func(extra ...string) []string { return append(append([]string(nil), tiny...), extra...) }
	for _, tc := range []struct {
		name string
		args []string
		code int
		err  string
	}{
		{"help", []string{"-help"}, 0, "Usage of pde-serve"},
		{"unknown flag", []string{"-wire-accept-loops", "2"}, 2, "flag provided but not defined"},
		{"shards not JSON", []string{"-shards", "{"}, 2, "parsing -shards"},
		{"shards empty", []string{"-shards", "{}"}, 2, "names no shards"},
		{"spec flag is gone", with("-n", "8"), 2, "flag provided but not defined"},
		{"invalid spec", []string{"-shards", `{"main": {"topology": "moebius", "n": 8, "eps": 0.5, "maxw": 16}}`}, 2, `shard "main": unknown topology`},
		{"build fails", []string{"-addr", "127.0.0.1:0", "-shards", `{"main": {"topology": "ring", "n": 8, "eps": 0.000001, "maxw": 16}}`}, 1, "rounding instances"},
		{"busy addr", []string{"-addr", busyAddr(t), "-shards", tinyShards}, 1, "address already in use"},
		{"busy wire-addr", with("-wire-addr", busyAddr(t)), 1, "address already in use"},
		{"busy pprof-addr", with("-pprof-addr", busyAddr(t)), 1, "address already in use"},
		{"empty addr", with("-addr", ""), 1, "empty HTTP listen address"},
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

// rawRequest is one HTTP/1.1 POST as bytes, so a test can hold a
// connection the server has accepted but not yet heard from, or stop
// halfway through a body.
func rawRequest(path, body string) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: pde\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", path, len(body), body)
}

func readResponse(t *testing.T, nc net.Conn) (int, string) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	buf := make([]byte, 1<<16)
	n, err := io.ReadAtLeast(nc, buf, 12)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var status int
	fmt.Sscanf(string(buf[:n]), "HTTP/1.1 %d", &status)
	return status, string(buf[:n])
}

// TestDrainOrder pins the shutdown contract on the real run(): on cancel
// the daemon flags itself closing first (a request that still arrives is
// refused with the 503 a coordinator fails over on), then stops accepting
// and waits for in-flight requests, and only after HTTP has drained closes
// the PDE2 listener; run returns 0.
func TestDrainOrder(t *testing.T) {
	p := boot(t, "-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0",
		"-shards", `{"main": {"topology": "ring", "n": 8, "eps": 1, "maxw": 2}}`)
	host := strings.TrimPrefix(p.base, "http://")
	wireAddr := p.stats(t).WireAddr
	dial := func() net.Conn {
		nc, err := net.Dial("tcp", host)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		return nc
	}

	// In flight before the cancel: a rebuild whose body is half sent.
	inflight := dial()
	rebuild := rawRequest("/v1/rebuild", `{"shard": "main", "seed": 7}`)
	if _, err := io.WriteString(inflight, rebuild[:len(rebuild)-5]); err != nil {
		t.Fatal(err)
	}
	// Accepted before the cancel, silent until after it. The accept queue
	// is FIFO, so once a connection dialed after these two has been
	// answered the server holds both: one still in the kernel's backlog
	// when the listener closes would be reset, not drained.
	late := dial()
	accepted := dial()
	if _, err := io.WriteString(accepted, rawRequest("/v1/estimate", `{"shard": "main", "queries": [{"v": 1, "s": 2}]}`)); err != nil {
		t.Fatal(err)
	}
	if status, body := readResponse(t, accepted); status != http.StatusOK {
		t.Fatalf("request before cancel: %d\n%s", status, body)
	}
	accepted.Close()

	p.cancel()
	// Shutdown has begun once the listener refuses; the drain hook ran
	// before it.
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		nc, err := net.Dial("tcp", host)
		if err != nil {
			break
		}
		nc.Close()
		if time.Now().After(deadline) {
			t.Fatal("HTTP listener still accepts after cancel")
		}
	}
	if _, err := io.WriteString(late, rawRequest("/v1/estimate", `{"shard": "main", "queries": [{"v": 1, "s": 2}]}`)); err != nil {
		t.Fatal(err)
	}
	if status, body := readResponse(t, late); status != http.StatusServiceUnavailable || !strings.Contains(body, "shutting_down") {
		t.Errorf("request arriving after cancel: %d, want 503 shutting_down\n%s", status, body)
	}
	// HTTP is still draining, so PDE2 still serves and run has not returned.
	c, err := wire.Dial(wireAddr)
	if err != nil {
		t.Fatalf("PDE2 listener closed before HTTP drained: %v", err)
	}
	defer c.Close()
	if _, _, err := c.Bind("main"); err != nil {
		t.Errorf("PDE2 bind while HTTP drains: %v", err)
	}
	select {
	case code := <-p.exit:
		t.Fatalf("run returned %d with a request in flight", code)
	default:
	}

	// The in-flight request finishes normally.
	if _, err := io.WriteString(inflight, rebuild[len(rebuild)-5:]); err != nil {
		t.Fatal(err)
	}
	status, body := readResponse(t, inflight)
	if status != http.StatusOK || !strings.Contains(body, `"changed":true`) {
		t.Errorf("in-flight rebuild: %d, want 200 and a swapped generation\n%s", status, body)
	}
	if code := p.stop(t); code != 0 {
		t.Errorf("exit %d after draining:\n%s", code, p.log)
	}
	if err := c.Ping(); err == nil {
		t.Error("PDE2 connection survived the daemon's exit")
	}
	if _, err := net.Dial("tcp", wireAddr); err == nil {
		t.Error("PDE2 listener still accepts after run returned")
	}
}

// TestSIGTERMDrainsAndExitsZero: a SIGTERM to the real process reaches
// run through main's signal.NotifyContext, and the daemon drains and
// exits 0. The test binary re-execs itself into main with the flags in
// $PDE_MAIN_ARGS.
func TestSIGTERMDrainsAndExitsZero(t *testing.T) {
	if args := os.Getenv("PDE_MAIN_ARGS"); args != "" {
		if err := json.Unmarshal([]byte(args), &os.Args); err != nil {
			t.Fatal(err)
		}
		main()
	}
	argv, _ := json.Marshal([]string{os.Args[0], "-addr", "127.0.0.1:0", "-shards", tinyShards})
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	log := &syncLog{}
	cmd.Env, cmd.Stderr = append(os.Environ(), "PDE_MAIN_ARGS="+string(argv)), log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	for deadline, signalled := time.Now().Add(20*time.Second), false; ; time.Sleep(2 * time.Millisecond) {
		if !signalled && strings.Contains(log.String(), "listening on") {
			signalled = cmd.Process.Signal(syscall.SIGTERM) == nil
		}
		select {
		case err := <-exited:
			if !signalled || err != nil || !strings.Contains(log.String(), "shutting down") {
				t.Fatalf("exit %v (signalled %t):\n%s", err, signalled, log)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no drain and exit within 20s (signalled %t):\n%s", signalled, log)
		}
	}
}

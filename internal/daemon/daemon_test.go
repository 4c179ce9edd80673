package daemon

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncLog is a daemon's Log: written by Run's goroutine, read by the
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

// await returns what follows marker on its log line once a line has it.
func (l *syncLog) await(t *testing.T, marker string) string {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, rest, ok := strings.Cut(l.String(), marker); ok {
			line, _, _ := strings.Cut(rest, "\n")
			return line
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q line in the log:\n%s", marker, l)
		}
	}
}

// events records the lifecycle steps a test observes, in order.
type events struct {
	mu   sync.Mutex
	list []string
}

func (e *events) add(s string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.list = append(e.list, s)
}

func (e *events) get() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.list)
}

// closerFunc adapts a function to io.Closer.
type closerFunc func() error

func (f closerFunc) Close() error { return f() }

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

// unserved is a daemon whose handler and PDE2 endpoint fail the test if
// anything reaches them.
func unserved(t *testing.T, log io.Writer) Daemon {
	return Daemon{
		Name: "d", Log: log,
		Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) { t.Error("a request was served") }),
		ServeWire: func(ln net.Listener) io.Closer {
			t.Error("the PDE2 endpoint was started")
			return ln
		},
	}
}

// TestBootFailures: an empty HTTP address, or any address that cannot
// bind, exits 1 with the reason on the log before anything serves. The
// empty address used to be skipped like an optional listener, and Run
// then dereferenced the nil HTTP listener.
func TestBootFailures(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		addr, wireAddr, pprofAddr string
		err                       string
	}{
		{"empty addr", "", "127.0.0.1:0", "", "d: empty HTTP listen address"},
		{"busy addr", busyAddr(t), "127.0.0.1:0", "", "address already in use"},
		{"busy wire-addr", "127.0.0.1:0", busyAddr(t), "", "address already in use"},
		{"busy pprof-addr", "127.0.0.1:0", "127.0.0.1:0", busyAddr(t), "address already in use"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log syncLog
			d := unserved(t, &log)
			d.Addr, d.WireAddr, d.PprofAddr = tc.addr, tc.wireAddr, tc.pprofAddr
			if code := d.Run(context.Background()); code != 1 {
				t.Errorf("exit %d, want 1", code)
			}
			if s := log.String(); !strings.Contains(s, tc.err) || strings.Contains(s, " on ") {
				t.Errorf("log wants %q and no listener line:\n%s", tc.err, s)
			}
		})
	}
}

// TestServeFailureAfterBoot: when the HTTP server fails while serving, Run
// returns 1 with the error on the log, and the PDE2 endpoint is closed on
// the way out.
func TestServeFailureAfterBoot(t *testing.T) {
	var log syncLog
	var ev events
	d := Daemon{
		Name: "d", Log: &log, Handler: http.NotFoundHandler(),
		ServeWire: func(ln net.Listener) io.Closer {
			return closerFunc(func() error { ev.add("wire closed"); return ln.Close() })
		},
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() { done <- d.serve(context.Background(), httpLn, wireLn, nil) }()
	log.await(t, "d: listening on ")
	httpLn.Close() // Accept fails for good: the server cannot go on
	select {
	case code := <-done:
		if code != 1 {
			t.Errorf("exit %d after the HTTP server failed, want 1", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("serve did not return after its listener failed:\n%s", &log)
	}
	if !strings.Contains(log.String(), "use of closed network connection") {
		t.Errorf("log does not name the failure:\n%s", &log)
	}
	if got := ev.get(); !slices.Equal(got, []string{"wire closed"}) {
		t.Errorf("events %q, want the PDE2 endpoint closed", got)
	}
}

// TestDrainOrder pins the shutdown contract: on cancel the Drain hook runs
// while the HTTP listener still accepts, then Shutdown stops accepting and
// waits for the request in flight, and only after that is the ServeWire
// closer closed; Run returns 0.
func TestDrainOrder(t *testing.T) {
	var log syncLog
	var ev events
	inHandler, release := make(chan struct{}), make(chan struct{})
	var httpAddr string
	d := Daemon{
		Name: "d", Log: &log,
		Addr: "127.0.0.1:0", WireAddr: "127.0.0.1:0", PprofAddr: "127.0.0.1:0",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			close(inHandler)
			<-release
			ev.add("request done")
		}),
		ServeWire: func(ln net.Listener) io.Closer {
			return closerFunc(func() error { ev.add("wire closed"); return ln.Close() })
		},
		Drain: func() {
			nc, err := net.Dial("tcp", httpAddr)
			if err != nil {
				t.Errorf("HTTP listener closed before Drain: %v", err)
			} else {
				nc.Close()
			}
			ev.add("drain")
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan int, 1)
	go func() { done <- d.Run(ctx) }()
	httpAddr = log.await(t, "d: listening on ")
	if pprof := log.await(t, "d: pprof on "); !strings.HasPrefix(pprof, "http://127.0.0.1:") {
		t.Errorf("pprof line %q", pprof)
	}

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	status := make(chan int, 1)
	go func() {
		resp, err := client.Get("http://" + httpAddr + "/")
		if err != nil {
			t.Errorf("request in flight: %v", err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-inHandler:
	case code := <-status:
		t.Fatalf("request answered %d without reaching the handler", code)
	}

	cancel()
	// Shutdown has begun once the listener refuses.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		nc, err := net.Dial("tcp", httpAddr)
		if err != nil {
			break
		}
		nc.Close()
		if time.Now().After(deadline) {
			t.Fatal("HTTP listener still accepts after cancel")
		}
	}
	select {
	case code := <-done:
		t.Fatalf("Run returned %d with a request in flight", code)
	default:
	}
	if got := ev.get(); !slices.Equal(got, []string{"drain"}) {
		t.Fatalf("events before the request finished %q, want [drain]", got)
	}

	close(release)
	if code := <-status; code != http.StatusOK {
		t.Errorf("request in flight answered %d, want 200", code)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit %d after a clean drain:\n%s", code, &log)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Run did not return after the drain:\n%s", &log)
	}
	if got, want := ev.get(), []string{"drain", "request done", "wire closed"}; !slices.Equal(got, want) {
		t.Errorf("events %q, want %q", got, want)
	}
}

// Package daemon is the process lifecycle pde-serve and pde-cluster
// share: bind every listener or fail the boot, serve, and on cancellation
// drain in the one order the serving contract allows.
package daemon

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers on http.DefaultServeMux, served only on PprofAddr
	"time"
)

// drainTimeout bounds the wait for in-flight HTTP requests on shutdown.
const drainTimeout = 10 * time.Second

// Daemon is one process's serving surface: an HTTP API, optionally a PDE2
// endpoint beside it and a pprof side listener.
type Daemon struct {
	Name string    // log-line prefix, e.g. "pde-serve"
	Log  io.Writer // lifecycle lines, among them the bound addresses

	// Listen addresses. WireAddr and PprofAddr may be empty (no such
	// listener); port 0 binds an ephemeral port, reported on Log.
	Addr, WireAddr, PprofAddr string

	Handler http.Handler
	// ServeWire starts the PDE2 endpoint on ln (bound to WireAddr). Run
	// closes what it returns once HTTP has drained.
	ServeWire func(ln net.Listener) io.Closer
	// Drain, when set, runs first on shutdown, before the HTTP server
	// stops accepting: pde-serve flags itself as closing there, so a
	// request that still arrives gets the 503 a coordinator fails over on.
	Drain func()
}

// Run serves until ctx is cancelled and returns the process exit code: 1
// when a listener cannot bind (nothing has served by then), when the HTTP
// server fails, or when in-flight requests outlast the drain bound; 0
// after a clean drain.
func (d Daemon) Run(ctx context.Context) int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(d.Log, d.Name+": "+format+"\n", args...)
	}
	var lns [3]net.Listener
	for i, addr := range [3]string{d.Addr, d.WireAddr, d.PprofAddr} {
		if addr == "" {
			continue
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			logf("%v", err)
			return 1
		}
		defer ln.Close() // a no-op after the server on it has closed it
		lns[i] = ln
	}
	httpLn, wireLn, pprofLn := lns[0], lns[1], lns[2]

	if pprofLn != nil {
		pprofSrv := &http.Server{Handler: http.DefaultServeMux}
		go pprofSrv.Serve(pprofLn) // returns when the deferred Close runs
		defer pprofSrv.Close()
		logf("pprof on http://%s/debug/pprof/", pprofLn.Addr())
	}
	if wireLn != nil {
		ws := d.ServeWire(wireLn)
		defer ws.Close() // deferred: after the HTTP drain below
		logf("PDE2 wire protocol on %s", wireLn.Addr())
	}
	httpSrv := &http.Server{Handler: d.Handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(httpLn) }()
	logf("listening on %s", httpLn.Addr())

	select {
	case err := <-errCh:
		logf("%v", err)
		return 1
	case <-ctx.Done():
	}
	logf("shutting down...")
	if d.Drain != nil {
		d.Drain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logf("shutdown: %v", err)
		return 1
	}
	return 0
}

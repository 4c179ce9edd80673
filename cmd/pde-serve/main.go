// Command pde-serve is the long-lived distance-query daemon: it builds
// one or more graph scenarios into independent oracle shards
// (internal/server) and serves estimate / next-hop / route traffic plus
// aggregate set-distance queries (/v1/setdist: Chamfer, Hausdorff and
// mean-min between two member sets, answered by the pruned
// internal/setdist engine) over HTTP, with admin hot-swap rebuilds,
// incremental edge-churn updates (/v1/update, delta-patched tables), a
// route LRU, and per-shard stats.
//
// Usage:
//
//	pde-serve [-addr :7475] [-wire-addr :7476] [-pprof-addr localhost:6060]
//	          [-scheme oracle|rtc|compact]
//	          [-topology random] [-n 256] [-eps 0.5] [-maxw 16]
//	          [-h 0] [-sigma 0] [-seed 1] [-build-workers 0]
//	          [-k 0] [-strategy simulate|broadcast] [-l0 0] [-sample-prob 0]
//	          [-shards '{"name": {"scheme": "...", "topology": "...", ...}}']
//	          [-max-batch 65536]
//
// With -shards, the JSON object maps shard names to full specs
// (internal/scheme.Spec: topology + PDE knobs + scheme selector) and the
// single-shard convenience flags are ignored; otherwise one shard named
// "main" is built from the convenience flags (h = sigma = 0 means full
// APSP). Every scheme — the compiled oracle,
// Theorem 4.5 rtc tables, the §4.3 compact hierarchy — serves the same
// wire protocol; a daemon can hold one shard per scheme side by side.
//
// With -wire-addr the daemon additionally serves the PDE2 raw-TCP
// framed protocol (internal/wire) on that address against the same
// shards: persistent connections, pipelined frames, zero-allocation
// steady state. Clients discover the endpoint from /v1/stats
// (wire_addr). -pprof-addr exposes net/http/pprof on a separate
// listener for live profiling (see docs/serving.md).
//
// Endpoints, wire formats, and hot-swap semantics are documented in
// docs/serving.md and internal/server. The daemon exits gracefully on
// SIGINT/SIGTERM, draining in-flight requests (internal/daemon). A
// listener that cannot bind fails the boot with exit 1; a usage error
// exits 2.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pde/internal/daemon"
	"pde/internal/graph"
	"pde/internal/scheme"
	"pde/internal/server"
	"pde/internal/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options is what the flags say: where to listen and what to serve.
type options struct {
	addr, wireAddr, pprofAddr string
	specs                     map[string]server.Spec
	maxBatch                  int
}

// parse reads the flags into options. A non-nil error has already been
// explained on stderr; flag.ErrHelp is -h.
func parse(args []string, stderr io.Writer) (options, error) {
	var o options
	var sp server.Spec
	fs := flag.NewFlagSet("pde-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":7475", "HTTP listen address")
	fs.StringVar(&o.wireAddr, "wire-addr", "", "PDE2 raw-TCP listen address (empty = wire protocol disabled)")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "net/http/pprof listen address, e.g. localhost:6060 (empty = disabled)")
	fs.StringVar(&sp.Scheme, "scheme", "oracle", scheme.List())
	fs.StringVar(&sp.Topology, "topology", "random", graph.GeneratorList())
	fs.IntVar(&sp.N, "n", 256, "number of nodes")
	fs.Float64Var(&sp.Eps, "eps", 0.5, "PDE approximation slack")
	fs.Int64Var(&sp.MaxW, "maxw", 16, "maximum edge weight")
	fs.IntVar(&sp.H, "h", 0, "hop bound (0 = APSP)")
	fs.IntVar(&sp.Sigma, "sigma", 0, "list size (0 = APSP)")
	fs.Int64Var(&sp.Seed, "seed", 1, "graph generator seed")
	fs.IntVar(&sp.BuildWorkers, "build-workers", 0, "parallel table-build pool width (0 = GOMAXPROCS)")
	fs.IntVar(&sp.K, "k", 0, "rtc/compact stretch parameter (0 = scheme default)")
	fs.StringVar(&sp.Strategy, "strategy", "", "compact truncation strategy when -l0 > 0: simulate (default) | broadcast")
	fs.IntVar(&sp.L0, "l0", 0, "compact truncation level (0 = none)")
	fs.Float64Var(&sp.SampleProb, "sample-prob", 0, "rtc skeleton sampling probability override (0 = paper's)")
	shardsJSON := fs.String("shards", "", `multi-shard spec: {"name": {"topology": ..., "n": ..., "eps": ..., ...}}`)
	fs.IntVar(&o.maxBatch, "max-batch", 0, "largest query batch one request may carry (0 = default 65536)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}

	fail := func(format string, args ...any) (options, error) {
		err := fmt.Errorf(format, args...)
		fmt.Fprintf(stderr, "pde-serve: %v\n", err)
		return o, err
	}
	o.specs = map[string]server.Spec{"main": sp}
	if *shardsJSON != "" {
		o.specs = nil
		if err := json.Unmarshal([]byte(*shardsJSON), &o.specs); err != nil {
			return fail("parsing -shards: %v", err)
		}
		if len(o.specs) == 0 {
			return fail("-shards names no shards")
		}
	}
	for name, sp := range o.specs {
		if err := sp.Validate(); err != nil {
			return fail("shard %q: %v", name, err)
		}
	}
	return o, nil
}

// run is the whole program: parse, build the shards, hand the serving
// surface to the shared lifecycle. It returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}

	t0 := time.Now()
	fmt.Fprintf(stderr, "pde-serve: building %d shard(s)...\n", len(o.specs))
	srv, err := server.New(o.specs, server.Config{MaxBatch: o.maxBatch})
	if err != nil {
		fmt.Fprintf(stderr, "pde-serve: %v\n", err)
		return 1
	}
	for _, name := range srv.Shards() {
		fp, _ := srv.Fingerprint(name)
		fmt.Fprintf(stderr, "pde-serve: shard %q ready (fingerprint %s)\n", name, fp)
	}
	fmt.Fprintf(stderr, "pde-serve: built in %.1fs\n", time.Since(t0).Seconds())

	return daemon.Daemon{
		Name: "pde-serve", Log: stderr,
		Addr: o.addr, WireAddr: o.wireAddr, PprofAddr: o.pprofAddr,
		Handler: srv,
		ServeWire: func(ln net.Listener) io.Closer {
			ws := wire.Serve(ln, srv, wire.Config{MaxBatch: o.maxBatch})
			srv.SetWireAddr(ws.Addr())
			return ws
		},
		// Flag first, then drain: a point query that still arrives while
		// Shutdown waits for in-flight requests gets the 503 a coordinator
		// fails over on.
		Drain: srv.Close,
	}.Run(ctx)
}

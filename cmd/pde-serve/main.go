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
//	pde-serve [-addr :7475]
//	          [-wire-addr :7476] [-wire-accept-loops 2]
//	          [-pprof-addr localhost:6060]
//	          [-scheme oracle|rtc|compact]
//	          [-topology random] [-n 256] [-eps 0.5] [-maxw 16]
//	          [-h 0] [-sigma 0] [-seed 1] [-build-workers 0]
//	          [-k 0] [-strategy none] [-l0 0] [-sample-prob 0]
//	          [-shards '{"name": {"scheme": "...", "topology": "...", ...}}']
//	          [-max-batch 65536] [-workers 0] [-route-cache 4096]
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
// SIGINT/SIGTERM, draining in-flight requests.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pde/internal/graph"
	"pde/internal/scheme"
	"pde/internal/server"
	"pde/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7475", "HTTP listen address")
	wireAddr := flag.String("wire-addr", "", "PDE2 raw-TCP listen address (empty = wire protocol disabled)")
	wireAcceptLoops := flag.Int("wire-accept-loops", 0, "PDE2 accept-loop goroutines sharing the listener (0 = default 2)")
	pprofAddr := flag.String("pprof-addr", "", "net/http/pprof listen address, e.g. localhost:6060 (empty = disabled)")
	schemeName := flag.String("scheme", "oracle", scheme.List())
	topology := flag.String("topology", "random", graph.GeneratorList())
	n := flag.Int("n", 256, "number of nodes")
	eps := flag.Float64("eps", 0.5, "PDE approximation slack")
	maxW := flag.Int64("maxw", 16, "maximum edge weight")
	h := flag.Int("h", 0, "hop bound (0 = APSP)")
	sigma := flag.Int("sigma", 0, "list size (0 = APSP)")
	seed := flag.Int64("seed", 1, "graph generator seed")
	buildWorkers := flag.Int("build-workers", 0, "parallel table-build pool width (0 = GOMAXPROCS)")
	k := flag.Int("k", 0, "rtc/compact stretch parameter (0 = scheme default)")
	strategy := flag.String("strategy", "", "compact truncation strategy: none | simulate | broadcast")
	l0 := flag.Int("l0", 0, "compact truncation level (0 = none)")
	sampleProb := flag.Float64("sample-prob", 0, "rtc skeleton sampling probability override (0 = paper's)")
	shardsJSON := flag.String("shards", "", `multi-shard spec: {"name": {"topology": ..., "n": ..., "eps": ..., ...}}`)
	maxBatch := flag.Int("max-batch", 0, "largest query batch one request may carry (0 = default 65536)")
	workers := flag.Int("workers", 0, "oracle fan-out per request (0 = GOMAXPROCS)")
	routeCache := flag.Int("route-cache", 0, "per-shard route LRU capacity (0 = default 4096, negative disables)")
	flag.Parse()

	specs := map[string]server.Spec{}
	if *shardsJSON != "" {
		if err := json.Unmarshal([]byte(*shardsJSON), &specs); err != nil {
			fmt.Fprintf(os.Stderr, "pde-serve: parsing -shards: %v\n", err)
			os.Exit(2)
		}
		if len(specs) == 0 {
			fmt.Fprintln(os.Stderr, "pde-serve: -shards names no shards")
			os.Exit(2)
		}
	} else {
		specs["main"] = server.Spec{
			Scheme: *schemeName, Topology: *topology, N: *n, Eps: *eps, MaxW: *maxW,
			H: *h, Sigma: *sigma, Seed: *seed, BuildWorkers: *buildWorkers,
			K: *k, Strategy: *strategy, L0: *l0, SampleProb: *sampleProb,
		}
	}
	for name, sp := range specs {
		if err := sp.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "pde-serve: shard %q: %v\n", name, err)
			os.Exit(2)
		}
	}

	cfg := server.Config{
		MaxBatch:       *maxBatch,
		Workers:        *workers,
		RouteCacheSize: *routeCache,
	}
	t0 := time.Now()
	fmt.Fprintf(os.Stderr, "pde-serve: building %d shard(s)...\n", len(specs))
	srv, err := server.New(specs, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pde-serve: %v\n", err)
		os.Exit(1)
	}
	for _, name := range srv.Shards() {
		fp, _ := srv.Fingerprint(name)
		fmt.Fprintf(os.Stderr, "pde-serve: shard %q ready (fingerprint %s)\n", name, fp)
	}
	fmt.Fprintf(os.Stderr, "pde-serve: built in %.1fs, listening on %s\n", time.Since(t0).Seconds(), *addr)

	if *pprofAddr != "" {
		// The main handler never sees these routes: pprof registers on
		// http.DefaultServeMux and only this side listener serves it.
		go func() {
			fmt.Fprintf(os.Stderr, "pde-serve: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pde-serve: pprof listener: %v\n", err)
			}
		}()
	}

	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pde-serve: wire listen: %v\n", err)
			os.Exit(1)
		}
		ws := wire.Serve(ln, srv, wire.Config{
			MaxBatch:    *maxBatch,
			AcceptLoops: *wireAcceptLoops,
		})
		defer ws.Close()
		srv.SetWireAddr(ws.Addr())
		fmt.Fprintf(os.Stderr, "pde-serve: PDE2 wire protocol on %s\n", ws.Addr())
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "pde-serve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "pde-serve: shutting down...")
		// Flag first, then drain: a point query that still arrives while
		// Shutdown waits for in-flight requests gets the 503 a coordinator
		// fails over on.
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "pde-serve: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
}

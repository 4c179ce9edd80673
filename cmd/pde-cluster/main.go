// Command pde-cluster is the multi-daemon coordinator: it fronts N
// pde-serve daemons behind one wire-compatible endpoint, placing named
// shards by rendezvous hashing over the daemons that serve them,
// health-probing the fleet, failing queries over to healthy replicas
// with retry and backoff, and propagating /v1/rebuild and /v1/update
// to every replica with a fingerprint-agreement check (it refuses to
// report success when replicas diverge).
//
// Usage:
//
//	pde-cluster -daemons http://127.0.0.1:7481,http://127.0.0.1:7482
//	            [-addr :7480] [-wire-addr :7490] [-pprof-addr localhost:6061]
//	            [-probe-interval 500ms] [-probe-timeout 2s]
//	            [-attempt-timeout 15s] [-admin-timeout 10m]
//	            [-retries 2] [-retry-backoff 25ms]
//
// With -wire-addr the coordinator additionally relays the PDE2 raw-TCP
// framed protocol (internal/wire): clients bind a shard and their
// Estimate / NextHop frames are store-and-forwarded to a healthy
// replica's own wire endpoint with the same failover discipline as the
// HTTP plane. Daemons must also run with -wire-addr to be eligible.
// -pprof-addr exposes net/http/pprof on a separate listener.
//
// A shard is replicated by configuring it (same name, same spec) on
// more than one daemon; the coordinator discovers the placement from
// the live daemons at boot and refuses to start if replicas of a shard
// already serve different fingerprints. Query clients point pde-query
// (or anything speaking the daemon protocol) at the coordinator; the
// placement and health view is served on /v1/cluster. Semantics are
// documented in docs/cluster.md. The process lifecycle (listen, serve,
// drain on SIGINT/SIGTERM) is internal/daemon's, shared with pde-serve:
// a listener that cannot bind or an unreachable daemon fails the boot
// with exit 1; a usage error exits 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pde/internal/cluster"
	"pde/internal/daemon"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options is what the flags say: where to listen and what to front.
type options struct {
	addr, wireAddr, pprofAddr string
	cfg                       cluster.Config
}

// parse reads the flags into options. A non-nil error has already been
// explained on stderr; flag.ErrHelp is -h.
func parse(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("pde-cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":7480", "HTTP listen address")
	fs.StringVar(&o.wireAddr, "wire-addr", "", "PDE2 raw-TCP relay listen address (empty = wire relay disabled)")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "net/http/pprof listen address, e.g. localhost:6061 (empty = disabled)")
	daemons := fs.String("daemons", "", "comma-separated pde-serve base URLs (required)")
	fs.DurationVar(&o.cfg.ProbeInterval, "probe-interval", 0, "health probe period per daemon (0 = default 500ms)")
	fs.DurationVar(&o.cfg.ProbeTimeout, "probe-timeout", 0, "single probe timeout (0 = default 2s)")
	fs.DurationVar(&o.cfg.AttemptTimeout, "attempt-timeout", 0, "single forwarded-query attempt timeout (0 = default 15s)")
	fs.DurationVar(&o.cfg.AdminTimeout, "admin-timeout", 0, "per-replica rebuild/update timeout (0 = default 10m)")
	fs.IntVar(&o.cfg.Retries, "retries", 0, "extra failover passes over the replica set (0 = default 2, negative disables retries)")
	fs.DurationVar(&o.cfg.RetryBackoff, "retry-backoff", 0, "sleep before the second pass, doubling per pass (0 = default 25ms)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *daemons == "" {
		err := errors.New("-daemons is required (comma-separated pde-serve base URLs)")
		fmt.Fprintf(stderr, "pde-cluster: %v\n", err)
		return o, err
	}
	o.cfg.Daemons = strings.Split(*daemons, ",")
	return o, nil
}

// run is the whole program: parse, probe the fleet, hand the serving
// surface to the shared lifecycle. It returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	coord, err := cluster.New(o.cfg)
	if err != nil {
		fmt.Fprintf(stderr, "pde-cluster: %v\n", err)
		return 1
	}
	defer coord.Close()
	for _, shard := range coord.Shards() {
		fmt.Fprintf(stderr, "pde-cluster: shard %q -> %v\n", shard, coord.Placement(shard))
	}
	fmt.Fprintf(stderr, "pde-cluster: fronting %d daemon(s)\n", coord.Daemons())

	return daemon.Daemon{
		Name: "pde-cluster", Log: stderr,
		Addr: o.addr, WireAddr: o.wireAddr, PprofAddr: o.pprofAddr,
		Handler:   coord,
		ServeWire: func(ln net.Listener) io.Closer { return coord.ServeWire(ln) },
	}.Run(ctx)
}

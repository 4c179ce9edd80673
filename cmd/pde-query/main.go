// Command pde-query is a load generator for the serving side of the
// repository: it builds a PDE result (Theorem 4.1 APSP or a partial
// (S, h, σ) sweep), compiles it into the flat indexed oracle
// (internal/oracle), and fires a randomized stream of distance / next-hop
// / route queries at it, reporting sustained queries per second.
//
// Usage:
//
//	pde-query [-n 256] [-topology random|grid|internet|ring|powerlaw|
//	          community|roadgrid] [-eps 0.5] [-maxw 16] [-h 0] [-sigma 0]
//	          [-scheme oracle|rtc|compact] [-k 0] [-sample-prob 0]
//	          [-queries 1000000] [-workers 1] [-build-workers 0]
//	          [-workload estimate|nexthop|route] [-seed 1] [-json]
//
// With -scheme rtc or compact, the tables are built through the unified
// registry (internal/scheme) and the stream is served from that scheme's
// AnswerInto/Route surface — the same code path a pde-serve scheme shard
// uses — with the scheme's table/label/stretch accounting in the summary.
//
//	-h/-sigma 0   means full APSP (S = V, h = σ = n); positive values run
//	              a partial sweep with every third node a source
//	-n            node count. The grid and roadgrid topologies round n up
//	              to the next perfect square; the emitted n field reports
//	              the actual size
//	-workers N    fan the estimate workload's oracle pass across N
//	              goroutines (0 = GOMAXPROCS). The nexthop/route
//	              workloads are always single-threaded.
//	-build-workers N  worker-pool width of the parallel table build (the
//	              rounding-instance pipeline; 0 = GOMAXPROCS). The build is
//	              bit-identical at any width; this only moves build_ns.
//	-json         emit a machine-readable summary instead of prose
//
// Cluster mode points the same remote workloads at a pde-cluster
// coordinator instead of a single daemon: every request is routed (and
// failed over) by the coordinator, and the run starts with a topology
// banner on stderr listing the daemons and shard placements behind it:
//
//	pde-query -cluster http://127.0.0.1:7480 [-shard main] [every remote flag]
//
// Remote mode turns the same load generator into the stress tool for the
// pde-serve daemon (internal/server): instead of building tables locally
// it discovers the target shard's size from /v1/stats and fires the query
// stream over HTTP in -batch sized requests from -workers concurrent
// clients:
//
//	pde-query -remote http://127.0.0.1:7475 [-shard main] [-batch 4096]
//	          [-codec binary|json|wire] [-depth 16]
//	          [-workload estimate|nexthop|route]
//	          [-queries N] [-workers N] [-seed 1] [-json]
//
// The route workload is always JSON (routes are variable-length); with
// partial-sweep shards unroutable pairs are counted, not fatal.
//
// -codec wire switches the estimate and nexthop workloads onto the PDE2
// raw-TCP framed protocol: the daemon's wire endpoint is discovered from
// /v1/stats (wire_addr, so the daemon must run with -wire-addr), each
// worker holds one persistent connection, and -depth frames are kept in
// flight per connection (pipelining). Same batches, same answers, no
// HTTP framing on the hot path.
//
// Set-distance mode fires one aggregate /v1/setdist query instead of a
// batch stream: two seeded member sets are sampled from the shard and
// the daemon answers their Chamfer / Hausdorff / mean-min aggregates
// (docs/serving.md describes the endpoint):
//
//	pde-query -remote http://127.0.0.1:7475 -setdist [-set-a 32] [-set-b 64]
//	          [-shard main] [-codec binary|json] [-naive] [-seed 1] [-json]
//
// -naive asks the server for the reference |A|×|B| evaluation instead of
// the pruned engine; the aggregates are bit-identical either way, so the
// flag exists to compare served wall clock and evaluated counts.
//
// Update mode drives edge churn instead of queries: it regenerates the
// target shard's graph client-side from the spec in /v1/stats, then
// applies -updates seeded single-edge ±1 reweights one at a time through
// /v1/update, mirroring each change locally so every reweight names a
// live edge with its current weight:
//
//	pde-query -remote http://127.0.0.1:7475 -updates 50 [-shard main]
//	          [-update-seed 1] [-update-verify] [-json]
//
// The summary reports how many updates the incremental delta path served
// versus full rebuilds, the mean damage (affected rounding-instance
// fraction), and the final serving fingerprint. -update-verify makes the
// daemon check every published generation against a from-scratch build
// on the same graph (refusing to publish on mismatch) — the CI churn
// smoke runs with it on. The shard must not already be mutated: a prior
// churn stream leaves the serving graph unreproducible from its spec,
// so the tool refuses and asks for a /v1/rebuild first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pde/internal/cluster"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"
	"pde/internal/server"
	"pde/internal/wire"
)

type summary struct {
	Workload      string  `json:"workload"`
	Scheme        string  `json:"scheme,omitempty"`
	Topology      string  `json:"topology"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Queries       int     `json:"queries"`
	Workers       int     `json:"workers"`
	BuildNS       int64   `json:"build_ns"`
	BuildWorkers  int     `json:"build_workers"`
	BuildFP       string  `json:"build_fingerprint"`
	OracleBuildNS int64   `json:"oracle_build_ns"`
	OracleBytes   int64   `json:"oracle_bytes"`
	OracleEntries int     `json:"oracle_entries"`
	WallNS        int64   `json:"wall_ns"`
	QPS           float64 `json:"qps"`
	NSPerQuery    float64 `json:"ns_per_query"`

	// Scheme-mode fields (absent for the oracle workloads).
	TableBytes      int64   `json:"table_bytes,omitempty"`
	MaxLabelBits    int     `json:"max_label_bits,omitempty"`
	MeasuredStretch float64 `json:"measured_stretch,omitempty"`
	StretchBound    float64 `json:"stretch_bound,omitempty"`

	// Remote-mode fields (absent in local runs).
	Remote    string `json:"remote,omitempty"`
	Shard     string `json:"shard,omitempty"`
	Batch     int    `json:"batch,omitempty"`
	Codec     string `json:"codec,omitempty"`
	Depth     int    `json:"depth,omitempty"`
	RemoteFP  string `json:"remote_fingerprint,omitempty"`
	Delivered int    `json:"delivered,omitempty"`
	// WireFPs is every distinct generation fingerprint stamped on the
	// PDE2 answer frames of a -codec wire run, sorted. A steady-state
	// run observes exactly one; a run concurrent with a /v1/rebuild may
	// observe two (pre- and post-swap generations) — anything else is a
	// coherence violation.
	WireFPs []string `json:"wire_fingerprints,omitempty"`
}

func main() {
	n := flag.Int("n", 256, "number of nodes")
	topology := flag.String("topology", "random", graph.GeneratorList())
	schemeName := flag.String("scheme", "oracle", "local mode: which scheme's tables to build and query ("+scheme.List()+")")
	k := flag.Int("k", 0, "rtc/compact stretch parameter (0 = scheme default)")
	sampleProb := flag.Float64("sample-prob", 0, "rtc skeleton sampling probability override")
	eps := flag.Float64("eps", 0.5, "PDE approximation slack")
	maxW := flag.Int64("maxw", 16, "maximum edge weight")
	h := flag.Int("h", 0, "hop bound (0 = APSP)")
	sigma := flag.Int("sigma", 0, "list size (0 = APSP)")
	queries := flag.Int("queries", 1_000_000, "number of queries to fire")
	workers := flag.Int("workers", 1, "oracle estimate-pass fan-out (0 = GOMAXPROCS)")
	buildWorkers := flag.Int("build-workers", 0, "parallel table-build worker-pool width (0 = GOMAXPROCS)")
	workload := flag.String("workload", "estimate", "estimate | nexthop | route")
	seed := flag.Int64("seed", 1, "graph and query stream seed")
	asJSON := flag.Bool("json", false, "emit a JSON summary")
	remote := flag.String("remote", "", "base URL of a pde-serve daemon; fire the stream over HTTP instead of building locally")
	clusterURL := flag.String("cluster", "", "base URL of a pde-cluster coordinator; like -remote but prints the cluster topology first and routes every request through the coordinator")
	shard := flag.String("shard", "main", "remote mode: shard to target")
	batch := flag.Int("batch", 4096, "remote mode: queries per request")
	codec := flag.String("codec", "binary", "remote mode: binary | json batch bodies, or wire for the PDE2 raw-TCP protocol (route is always json)")
	depth := flag.Int("depth", 16, "remote mode, -codec wire: pipelined frames in flight per connection")
	setDist := flag.Bool("setdist", false, "remote mode: fire one aggregate set-distance query instead of a batch stream")
	setA := flag.Int("set-a", 32, "-setdist: member count of set A (seeded sample of the shard's nodes)")
	setB := flag.Int("set-b", 64, "-setdist: member count of set B (seeded sample of the shard's nodes)")
	naive := flag.Bool("naive", false, "-setdist: request the naive |A|x|B| reference evaluation instead of the pruned engine")
	updates := flag.Int("updates", 0, "remote mode: drive this many seeded single-edge reweights through /v1/update instead of a query stream")
	updateSeed := flag.Int64("update-seed", 1, "-updates: churn stream seed")
	updateVerify := flag.Bool("update-verify", false, "-updates: ask the daemon to verify every update against a from-scratch build before publishing")
	flag.Parse()

	if *clusterURL != "" {
		if *remote != "" {
			fmt.Fprintln(os.Stderr, "pde-query: use either -remote or -cluster, not both")
			os.Exit(2)
		}
		// The coordinator is wire-compatible with a daemon, so cluster
		// mode is remote mode pointed at it — plus a topology banner so
		// a run's logs show which daemons were behind it.
		describeCluster(*clusterURL)
		*remote = *clusterURL
	}
	if *setDist && *remote == "" {
		fmt.Fprintln(os.Stderr, "pde-query: -setdist is a remote mode; point it at a daemon with -remote")
		os.Exit(2)
	}
	if *updates > 0 && *remote == "" {
		fmt.Fprintln(os.Stderr, "pde-query: -updates is a remote mode; point it at a daemon with -remote")
		os.Exit(2)
	}
	if *remote != "" && *updates > 0 {
		runUpdates(updateOpts{
			base: *remote, shard: *shard, updates: *updates,
			seed: *updateSeed, verify: *updateVerify, asJSON: *asJSON,
		})
		return
	}
	if *remote != "" && *setDist {
		runSetDist(setDistOpts{
			base: *remote, shard: *shard, codec: *codec,
			sizeA: *setA, sizeB: *setB, naive: *naive, seed: *seed,
			asJSON: *asJSON,
		})
		return
	}

	if *remote != "" {
		runRemote(remoteOpts{
			base: *remote, shard: *shard, workload: *workload, codec: *codec,
			queries: *queries, batch: *batch, workers: *workers, seed: *seed,
			depth: *depth, asJSON: *asJSON,
		})
		return
	}

	if *schemeName != "oracle" && *schemeName != "" {
		runScheme(schemeOpts{
			scheme: *schemeName, topology: *topology, n: *n, eps: *eps,
			maxW: *maxW, h: *h, sigma: *sigma, seed: *seed, k: *k,
			sampleProb: *sampleProb, buildWorkers: *buildWorkers,
			workload: *workload, queries: *queries, workers: *workers,
			asJSON: *asJSON,
		})
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	g, err := graph.Generate(*topology, *n, graph.Weight(*maxW), rng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pde-query: %v\n", err)
		os.Exit(2)
	}

	params := core.APSPParams(g.N(), *eps)
	if *h > 0 || *sigma > 0 {
		src := make([]bool, g.N())
		for v := 0; v < g.N(); v += 3 {
			src[v] = true
		}
		hh, sig := *h, *sigma
		if hh <= 0 {
			hh = g.N()
		}
		if sig <= 0 {
			sig = g.N()
		}
		params = core.Params{IsSource: src, H: hh, Sigma: sig, Epsilon: *eps, CapMessages: true}
	}

	buildCfg := congest.Config{Parallel: true, Workers: *buildWorkers}
	t0 := time.Now()
	res, err := core.Run(g, params, buildCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pde-query: build: %v\n", err)
		os.Exit(1)
	}
	buildNS := time.Since(t0).Nanoseconds()

	o := oracle.Compile(res)
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	sum := summary{
		Workload: *workload, Topology: *topology, N: g.N(), M: g.M(),
		Queries: *queries, Workers: w,
		BuildNS:       buildNS,
		BuildWorkers:  buildCfg.EffectiveWorkers(),
		BuildFP:       fmt.Sprintf("%016x", res.Fingerprint()),
		OracleBuildNS: o.BuildTime.Nanoseconds(),
		OracleBytes:   o.Bytes(),
		OracleEntries: o.Entries(),
	}

	qs := make([]oracle.Query, *queries)
	if *workload == "route" {
		// Routes are only guaranteed deliverable for destinations in the
		// origin's output list (Corollary 3.5); with partial sweeps most
		// uniform (v, s) pairs have no entry and Route would rightly fail.
		for i := range qs {
			found := false
			for attempt := 0; attempt < 1000; attempt++ {
				v := rng.Intn(g.N())
				lst := res.Lists[v]
				if len(lst) == 0 {
					continue
				}
				qs[i] = oracle.Query{V: int32(v), S: lst[rng.Intn(len(lst))].Src}
				found = true
				break
			}
			if !found {
				fmt.Fprintln(os.Stderr, "pde-query: no routable (v, s) pairs in these tables")
				os.Exit(1)
			}
		}
	} else {
		for i := range qs {
			qs[i] = oracle.Query{V: int32(rng.Intn(g.N())), S: int32(rng.Intn(g.N()))}
		}
	}

	var wall time.Duration
	switch *workload {
	case "estimate":
		if w == 1 {
			out := make([]oracle.Answer, len(qs))
			t0 = time.Now()
			o.AnswerAll(qs, out)
			wall = time.Since(t0)
		} else {
			t0 = time.Now()
			o.AnswerParallel(qs, w)
			wall = time.Since(t0)
		}
	case "nexthop":
		router := core.NewRouterWith(g, res, o)
		t0 = time.Now()
		for _, q := range qs {
			router.NextHop(int(q.V), q.S)
		}
		wall = time.Since(t0)
	case "route":
		router := core.NewRouterWith(g, res, o)
		t0 = time.Now()
		for _, q := range qs {
			if _, err := router.Route(int(q.V), q.S); err != nil {
				fmt.Fprintf(os.Stderr, "pde-query: route %d->%d: %v\n", q.V, q.S, err)
				os.Exit(1)
			}
		}
		wall = time.Since(t0)
	default:
		fmt.Fprintf(os.Stderr, "pde-query: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	sum.WallNS = wall.Nanoseconds()
	if wall > 0 {
		sum.QPS = float64(*queries) / wall.Seconds()
		sum.NSPerQuery = float64(sum.WallNS) / float64(*queries)
	}

	if *asJSON {
		data, err := json.MarshalIndent(&sum, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pde-query: marshal: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}
	fmt.Printf("pde-query: %s/%s n=%d m=%d — built tables in %.1fms (%d build workers, fp %s), oracle in %.2fms (%d entries, %.1f KiB)\n",
		*workload, *topology, g.N(), g.M(),
		float64(buildNS)/1e6, sum.BuildWorkers, sum.BuildFP, float64(sum.OracleBuildNS)/1e6,
		sum.OracleEntries, float64(sum.OracleBytes)/1024)
	fmt.Printf("pde-query: served %d queries from the oracle with %d worker(s) in %.1fms: %.0f queries/sec (%.0f ns/query)\n",
		*queries, w, float64(sum.WallNS)/1e6, sum.QPS, sum.NSPerQuery)
}

// schemeOpts parameterizes a local run against a non-oracle scheme from
// the unified registry (internal/scheme).
type schemeOpts struct {
	scheme, topology string
	n                int
	eps              float64
	maxW             int64
	h, sigma, k      int
	sampleProb       float64
	seed             int64
	buildWorkers     int
	workload         string
	queries, workers int
	asJSON           bool
}

// runScheme builds an rtc or compact instance through the registry and
// fires the query stream at its serving surface — the same AnswerInto /
// Route paths the daemon uses for scheme shards.
func runScheme(opt schemeOpts) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pde-query: "+format+"\n", args...)
		os.Exit(1)
	}
	sp := scheme.Spec{
		Scheme: opt.scheme, Topology: opt.topology, N: opt.n, Eps: opt.eps,
		MaxW: opt.maxW, H: opt.h, Sigma: opt.sigma, Seed: opt.seed,
		BuildWorkers: opt.buildWorkers, K: opt.k, SampleProb: opt.sampleProb,
	}
	inst, err := scheme.Build(sp)
	if err != nil {
		fail("%v", err)
	}
	g := inst.Graph()
	w := opt.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	a := inst.Accounting()
	sum := summary{
		Workload: opt.workload, Scheme: inst.Scheme(), Topology: opt.topology,
		N: g.N(), M: g.M(), Queries: opt.queries, Workers: w,
		BuildNS:         inst.BuildNS(),
		BuildFP:         fmt.Sprintf("%016x", inst.Fingerprint()),
		TableBytes:      a.TableBytes,
		MaxLabelBits:    a.MaxLabelBits,
		MeasuredStretch: a.MeasuredStretch,
		StretchBound:    a.StretchBound,
	}

	rng := rand.New(rand.NewSource(opt.seed))
	qs := make([]oracle.Query, opt.queries)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(rng.Intn(g.N())), S: int32(rng.Intn(g.N()))}
	}

	var wall time.Duration
	switch opt.workload {
	case "estimate", "nexthop":
		// Both ride AnswerInto: every answer carries the scheme's distance
		// estimate and its first forwarding hop.
		out := make([]oracle.Answer, len(qs))
		t0 := time.Now()
		inst.AnswerInto(qs, out, w)
		wall = time.Since(t0)
	case "route":
		t0 := time.Now()
		for _, q := range qs {
			if _, err := inst.Route(int(q.V), q.S); err != nil {
				fail("route %d->%d: %v", q.V, q.S, err)
			}
		}
		wall = time.Since(t0)
	default:
		fail("unknown workload %q", opt.workload)
	}
	sum.WallNS = wall.Nanoseconds()
	if wall > 0 {
		sum.QPS = float64(opt.queries) / wall.Seconds()
		sum.NSPerQuery = float64(sum.WallNS) / float64(opt.queries)
	}
	if opt.asJSON {
		data, err := json.MarshalIndent(&sum, "", "  ")
		if err != nil {
			fail("marshal: %v", err)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}
	fmt.Printf("pde-query: %s/%s/%s n=%d m=%d — built tables in %.1fms (fp %s): %.1f KiB, labels <= %d bits, measured stretch %.3f (bound %.0f)\n",
		sum.Scheme, opt.workload, opt.topology, g.N(), g.M(),
		float64(sum.BuildNS)/1e6, sum.BuildFP, float64(a.TableBytes)/1024,
		a.MaxLabelBits, a.MeasuredStretch, a.StretchBound)
	fmt.Printf("pde-query: served %d %s queries with %d worker(s) in %.1fms: %.0f queries/sec (%.0f ns/query)\n",
		opt.queries, opt.workload, w, float64(sum.WallNS)/1e6, sum.QPS, sum.NSPerQuery)
}

// remoteOpts parameterizes a remote-mode run against a pde-serve daemon.
type remoteOpts struct {
	base     string
	shard    string
	workload string
	codec    string
	queries  int
	batch    int
	workers  int
	seed     int64
	depth    int
	asJSON   bool
}

// runRemote fires the query stream at a live daemon and reports
// end-to-end throughput. It exits the process on any error: the tool is
// a load generator, and a failing request means the measurement is void.
func runRemote(opt remoteOpts) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pde-query: "+format+"\n", args...)
		os.Exit(1)
	}
	if opt.codec != "binary" && opt.codec != "json" && opt.codec != "wire" {
		fail("unknown codec %q (want binary, json or wire)", opt.codec)
	}
	if opt.codec == "wire" && opt.workload == "route" {
		fail("the route workload is not part of the PDE2 wire protocol; use -codec binary or json")
	}
	if opt.batch <= 0 {
		fail("-batch must be positive")
	}
	if opt.codec == "wire" && opt.depth <= 0 {
		fail("-depth must be positive")
	}
	workers := opt.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx := context.Background()
	client := &server.Client{BaseURL: opt.base, Shard: opt.shard}
	st, err := client.Stats(ctx)
	if err != nil {
		fail("fetching /v1/stats from %s: %v", opt.base, err)
	}
	status, ok := st.Shards[opt.shard]
	if !ok {
		names := make([]string, 0, len(st.Shards))
		for name := range st.Shards {
			names = append(names, name)
		}
		fail("daemon has no shard %q (shards: %v)", opt.shard, names)
	}
	n := status.N

	rng := rand.New(rand.NewSource(opt.seed))
	qs := make([]oracle.Query, opt.queries)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(rng.Intn(n)), S: int32(rng.Intn(n))}
	}

	sum := summary{
		Workload: opt.workload, Topology: status.Spec.Topology, N: n, M: status.M,
		Queries: opt.queries, Workers: workers,
		Remote: opt.base, Shard: opt.shard, Batch: opt.batch, Codec: opt.codec,
		RemoteFP: status.Fingerprint,
	}
	if opt.workload == "route" {
		sum.Codec = "json"
	}

	if opt.codec == "wire" {
		if st.WireAddr == "" {
			fail("daemon %s reports no wire endpoint in /v1/stats — start pde-serve with -wire-addr", opt.base)
		}
		sum.Depth = opt.depth
		runRemoteWire(opt, server.ResolveWireAddr(opt.base, st.WireAddr), workers, qs, sum, fail)
		return
	}

	// Split the stream into batch-sized requests and fan them across
	// workers (server.SplitSpans + server.DriveBatches, the same harness
	// the serving benchmark uses). Each worker gets its own Transport so
	// its connection actually stays warm: pooling all workers through
	// one transport would cap idle connections at MaxIdleConnsPerHost
	// and make the others re-dial per batch. server.DefaultTransport
	// carries the package's dial/response-header timeouts, so a hung
	// daemon fails the run instead of blocking it forever.
	spans := server.SplitSpans(len(qs), opt.batch)
	cls := make([]*server.Client, workers)
	for w := range cls {
		cls[w] = &server.Client{BaseURL: opt.base, Shard: opt.shard,
			HTTP: &http.Client{Transport: server.DefaultTransport()}}
	}
	var delivered atomic.Int64
	t0 := time.Now()
	err = server.DriveBatches(workers, len(spans), func(w, i int) error {
		part := qs[spans[i].Lo:spans[i].Hi]
		switch opt.workload {
		case "estimate":
			answers, _, err := cls[w].Estimate(ctx, part, opt.codec == "json")
			if err != nil {
				return err
			}
			for _, a := range answers {
				if a.OK {
					delivered.Add(1)
				}
			}
		case "nexthop":
			hops, _, err := cls[w].NextHop(ctx, part, opt.codec == "json")
			if err != nil {
				return err
			}
			for _, h := range hops {
				if h.OK {
					delivered.Add(1)
				}
			}
		case "route":
			pairs := make([]server.WirePair, len(part))
			for j, q := range part {
				pairs[j] = server.WirePair{From: q.V, To: q.S}
			}
			resp, err := cls[w].Route(ctx, pairs)
			if err != nil {
				return err
			}
			for _, rt := range resp.Routes {
				if rt.OK {
					delivered.Add(1)
				}
			}
		default:
			return fmt.Errorf("unknown workload %q", opt.workload)
		}
		return nil
	})
	wall := time.Since(t0)
	if err != nil {
		fail("remote %s workload: %v", opt.workload, err)
	}

	sum.Delivered = int(delivered.Load())
	sum.WallNS = wall.Nanoseconds()
	if wall > 0 {
		sum.QPS = float64(opt.queries) / wall.Seconds()
		sum.NSPerQuery = float64(sum.WallNS) / float64(opt.queries)
	}
	if opt.asJSON {
		data, err := json.MarshalIndent(&sum, "", "  ")
		if err != nil {
			fail("marshal: %v", err)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}
	fmt.Printf("pde-query: remote %s/%s shard=%q n=%d (fingerprint %s)\n",
		opt.workload, opt.base, opt.shard, n, sum.RemoteFP)
	fmt.Printf("pde-query: served %d queries (%d delivered) in %d-query %s batches over %d client(s) in %.1fms: %.0f queries/sec (%.0f ns/query)\n",
		opt.queries, sum.Delivered, opt.batch, sum.Codec, workers, float64(sum.WallNS)/1e6, sum.QPS, sum.NSPerQuery)
}

// runRemoteWire drives the estimate or nexthop stream over the PDE2
// raw-TCP protocol: each worker holds one persistent connection bound to
// the shard and keeps opt.depth frames in flight (submitting a chunk of
// depth batches, then draining with Wait). Answers are decoded to count
// deliveries, so the measurement covers the same end-to-end work as the
// HTTP codecs.
func runRemoteWire(opt remoteOpts, wireAddr string, workers int, qs []oracle.Query, sum summary, fail func(string, ...any)) {
	spans := server.SplitSpans(len(qs), opt.batch)
	var (
		delivered atomic.Int64
		firstErr  atomic.Pointer[error]
		wg        sync.WaitGroup
		fpMu      sync.Mutex
		fpSeen    = map[uint64]bool{}
	)
	setErr := func(err error) { firstErr.CompareAndSwap(nil, &err) }
	seeFP := func(fp uint64) {
		fpMu.Lock()
		fpSeen[fp] = true
		fpMu.Unlock()
	}

	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.DialTimeout(wireAddr, 10*time.Second)
			if err != nil {
				setErr(fmt.Errorf("worker %d: dialing wire endpoint %s: %w", w, wireAddr, err))
				return
			}
			defer c.Close()
			if _, _, err := c.Bind(opt.shard); err != nil {
				setErr(fmt.Errorf("worker %d: bind %q: %w", w, opt.shard, err))
				return
			}
			p, err := c.NewPipeline(opt.depth)
			if err != nil {
				setErr(fmt.Errorf("worker %d: pipeline: %w", w, err))
				return
			}
			defer p.Close()

			outs := make([][]oracle.Answer, opt.depth)
			hops := make([][]wire.Hop, opt.depth)
			ress := make([]wire.Result, opt.depth)
			for j := range outs {
				outs[j] = make([]oracle.Answer, opt.batch)
				hops[j] = make([]wire.Hop, opt.batch)
			}
			// Worker w owns spans w, w+workers, w+2*workers, ... processed
			// in depth-sized chunks: submit the whole chunk (frames queue in
			// flight), then Wait drains it.
			mine := make([]server.Span, 0, (len(spans)+workers-1)/workers)
			for i := w; i < len(spans); i += workers {
				mine = append(mine, spans[i])
			}
			for lo := 0; lo < len(mine); lo += opt.depth {
				k := len(mine) - lo
				if k > opt.depth {
					k = opt.depth
				}
				for j := 0; j < k; j++ {
					part := qs[mine[lo+j].Lo:mine[lo+j].Hi]
					var serr error
					if opt.workload == "estimate" {
						serr = p.Estimate(part, outs[j][:len(part)], &ress[j])
					} else {
						serr = p.NextHop(part, hops[j][:len(part)], &ress[j])
					}
					if serr != nil {
						setErr(fmt.Errorf("worker %d: submit: %w", w, serr))
						return
					}
				}
				if err := p.Wait(); err != nil {
					setErr(fmt.Errorf("worker %d: pipeline: %w", w, err))
					return
				}
				for j := 0; j < k; j++ {
					if ress[j].Err != nil {
						setErr(fmt.Errorf("worker %d: frame: %w", w, ress[j].Err))
						return
					}
					seeFP(ress[j].FP)
					count := mine[lo+j].Hi - mine[lo+j].Lo
					if opt.workload == "estimate" {
						for _, a := range outs[j][:count] {
							if a.OK {
								delivered.Add(1)
							}
						}
					} else {
						for _, h := range hops[j][:count] {
							if h.OK {
								delivered.Add(1)
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0)
	if ep := firstErr.Load(); ep != nil {
		fail("remote %s workload over wire: %v", opt.workload, *ep)
	}

	sum.Delivered = int(delivered.Load())
	sum.WallNS = wall.Nanoseconds()
	if wall > 0 {
		sum.QPS = float64(opt.queries) / wall.Seconds()
		sum.NSPerQuery = float64(sum.WallNS) / float64(opt.queries)
	}
	for fp := range fpSeen {
		sum.WireFPs = append(sum.WireFPs, fmt.Sprintf("%016x", fp))
	}
	sort.Strings(sum.WireFPs)
	if opt.asJSON {
		data, err := json.MarshalIndent(&sum, "", "  ")
		if err != nil {
			fail("marshal: %v", err)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}
	fmt.Printf("pde-query: remote %s/%s shard=%q n=%d (fingerprint %s, PDE2 %s, generations seen %v)\n",
		opt.workload, opt.base, opt.shard, sum.N, sum.RemoteFP, wireAddr, sum.WireFPs)
	fmt.Printf("pde-query: served %d queries (%d delivered) in %d-query frames, depth %d, over %d connection(s) in %.1fms: %.0f queries/sec (%.0f ns/query)\n",
		opt.queries, sum.Delivered, opt.batch, opt.depth, workers, float64(sum.WallNS)/1e6, sum.QPS, sum.NSPerQuery)
}

// setDistOpts parameterizes a -setdist run against a pde-serve daemon.
type setDistOpts struct {
	base, shard, codec string
	sizeA, sizeB       int
	naive              bool
	seed               int64
	asJSON             bool
}

// runSetDist samples two seeded member sets from the target shard and
// fires a single /v1/setdist aggregate query, printing the Chamfer /
// Hausdorff / mean-min aggregates and the server's pruning accounting.
func runSetDist(opt setDistOpts) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pde-query: "+format+"\n", args...)
		os.Exit(1)
	}
	if opt.codec != "binary" && opt.codec != "json" {
		fail("unknown codec %q (want binary or json)", opt.codec)
	}
	if opt.sizeA <= 0 || opt.sizeB <= 0 {
		fail("-set-a and -set-b must be positive (got %d, %d)", opt.sizeA, opt.sizeB)
	}
	ctx := context.Background()
	client := &server.Client{BaseURL: opt.base, Shard: opt.shard}
	st, err := client.Stats(ctx)
	if err != nil {
		fail("fetching /v1/stats from %s: %v", opt.base, err)
	}
	status, ok := st.Shards[opt.shard]
	if !ok {
		fail("daemon has no shard %q", opt.shard)
	}
	n := status.N

	rng := rand.New(rand.NewSource(opt.seed))
	a := make([]int32, opt.sizeA)
	for i := range a {
		a[i] = int32(rng.Intn(n))
	}
	b := make([]int32, opt.sizeB)
	for i := range b {
		b[i] = int32(rng.Intn(n))
	}

	t0 := time.Now()
	resp, err := client.SetDist(ctx, a, b, opt.naive, opt.codec == "json")
	wall := time.Since(t0)
	if err != nil {
		fail("setdist: %v", err)
	}

	if opt.asJSON {
		data, err := json.MarshalIndent(struct {
			*server.SetDistResponse
			WallNS int64 `json:"wall_ns"`
		}{resp, wall.Nanoseconds()}, "", "  ")
		if err != nil {
			fail("marshal: %v", err)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}

	agg := func(w server.WireAggregates) string {
		if !w.Finite {
			return fmt.Sprintf("chamfer=inf hausdorff=inf mean-min=inf (%d of %d members unreachable)",
				w.Unreachable, w.Members)
		}
		return fmt.Sprintf("chamfer=%.3f hausdorff=%.3f mean-min=%.3f", w.Chamfer, w.Hausdorff, w.MeanMin)
	}
	sym := "inf"
	if resp.HausdorffFinite {
		sym = fmt.Sprintf("%.3f", resp.Hausdorff)
	}
	mode := "pruned"
	if opt.naive {
		mode = "naive"
	}
	fmt.Printf("pde-query: setdist shard=%q n=%d |A|=%d |B|=%d codec=%s (fingerprint %s)\n",
		opt.shard, n, len(a), len(b), opt.codec, resp.Fingerprint)
	fmt.Printf("pde-query: A->B %s\n", agg(resp.AB))
	fmt.Printf("pde-query: B->A %s\n", agg(resp.BA))
	fmt.Printf("pde-query: symmetric Hausdorff %s — %s engine evaluated %d of %d candidate pairs (%d pruned) in %.2fms\n",
		sym, mode, resp.Evaluated, resp.Pairs, resp.Pruned, float64(wall.Nanoseconds())/1e6)
}

// updateOpts parameterizes an -updates churn run against a pde-serve
// daemon.
type updateOpts struct {
	base, shard string
	updates     int
	seed        int64
	verify      bool
	asJSON      bool
}

// updateSummary is the machine-readable report of an -updates run.
type updateSummary struct {
	Shard          string  `json:"shard"`
	Updates        int     `json:"updates"`
	DeltaUpdates   int     `json:"delta_updates"`
	RebuildUpdates int     `json:"rebuild_updates"`
	Verified       int     `json:"verified"`
	AvgDamage      float64 `json:"avg_damage"`
	WallNS         int64   `json:"wall_ns"`
	UpdatesPerSec  float64 `json:"updates_per_sec"`
	Fingerprint    string  `json:"fingerprint"`
}

// runUpdates regenerates the shard's graph from its spec, then walks a
// seeded churn stream of single-edge ±1 reweights through /v1/update,
// keeping a local mirror of the serving graph in lockstep so every
// change targets a live edge. It exits the process on any error.
func runUpdates(opt updateOpts) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pde-query: "+format+"\n", args...)
		os.Exit(1)
	}
	ctx := context.Background()
	client := &server.Client{BaseURL: opt.base, Shard: opt.shard}
	st, err := client.Stats(ctx)
	if err != nil {
		fail("fetching /v1/stats from %s: %v", opt.base, err)
	}
	status, ok := st.Shards[opt.shard]
	if !ok {
		fail("daemon has no shard %q", opt.shard)
	}
	if status.Mutated {
		fail("shard %q is already mutated: its serving graph no longer matches its spec, so a client-side mirror cannot be reconstructed — POST /v1/rebuild first", opt.shard)
	}
	sp := status.Spec.Normalized()
	g, err := sp.BuildGraph()
	if err != nil {
		fail("regenerating shard %q graph from its spec: %v", opt.shard, err)
	}
	if g.N() != status.N {
		fail("regenerated graph has n=%d, shard reports n=%d", g.N(), status.N)
	}

	// Reweights never change the mirror's edge set, so the candidates
	// are listed once and only the picked entry's weight moves.
	edges := make([]graph.Change, 0, g.M())
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		edges = append(edges, graph.Change{Op: graph.OpReweight, U: u, V: v, W: w})
	})
	rng := rand.New(rand.NewSource(opt.seed))
	sum := updateSummary{Shard: opt.shard, Updates: opt.updates}
	var damage float64
	t0 := time.Now()
	for step := 0; step < opt.updates; step++ {
		pick := rng.Intn(len(edges))
		c := edges[pick]
		switch {
		case c.W <= 1:
			c.W++
		case c.W >= graph.Weight(sp.MaxW):
			c.W--
		case rng.Intn(2) == 0:
			c.W--
		default:
			c.W++
		}
		g2, _, err := g.ApplyChanges([]graph.Change{c})
		if err != nil {
			fail("step %d: mirroring reweight locally: %v", step, err)
		}
		resp, err := client.Update(ctx, server.UpdateRequest{
			Changes: []server.WireChange{{Op: "reweight", U: c.U, V: c.V, W: c.W}},
			Verify:  opt.verify,
		})
		if err != nil {
			fail("step %d: /v1/update: %v", step, err)
		}
		if resp.Path == "delta" {
			sum.DeltaUpdates++
		} else {
			sum.RebuildUpdates++
		}
		if resp.Verified {
			sum.Verified++
		}
		damage += resp.Damage
		sum.Fingerprint = resp.NewFingerprint
		g, edges[pick].W = g2, c.W
	}
	wall := time.Since(t0)
	sum.WallNS = wall.Nanoseconds()
	if opt.updates > 0 {
		sum.AvgDamage = damage / float64(opt.updates)
	}
	if wall > 0 {
		sum.UpdatesPerSec = float64(opt.updates) / wall.Seconds()
	}

	// The stream's final generation must be what the daemon now serves.
	st, err = client.Stats(ctx)
	if err != nil {
		fail("re-fetching /v1/stats: %v", err)
	}
	status = st.Shards[opt.shard]
	if status.Fingerprint != sum.Fingerprint {
		fail("daemon serves %s but the last update published %s", status.Fingerprint, sum.Fingerprint)
	}
	if !status.Mutated {
		fail("shard %q is not flagged mutated after %d updates", opt.shard, opt.updates)
	}

	if opt.asJSON {
		data, err := json.MarshalIndent(&sum, "", "  ")
		if err != nil {
			fail("marshal: %v", err)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}
	fmt.Printf("pde-query: churn shard=%q n=%d — %d updates (%d delta, %d rebuild, %d verified), avg damage %.3f\n",
		opt.shard, g.N(), sum.Updates, sum.DeltaUpdates, sum.RebuildUpdates, sum.Verified, sum.AvgDamage)
	fmt.Printf("pde-query: applied in %.1fms (%.1f updates/sec), serving fingerprint %s\n",
		float64(sum.WallNS)/1e6, sum.UpdatesPerSec, sum.Fingerprint)
}

// describeCluster prints the coordinator's topology to stderr (stdout
// stays machine-readable for -json runs) and exits if the target is not
// a reachable pde-cluster coordinator.
func describeCluster(base string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := cluster.FetchStatus(ctx, base, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pde-query: fetching /v1/cluster from %s: %v\n", base, err)
		os.Exit(1)
	}
	healthy := 0
	for _, d := range st.Daemons {
		if d.Healthy {
			healthy++
		}
	}
	fmt.Fprintf(os.Stderr, "pde-query: cluster %s — %d/%d daemons healthy, %d shard(s)\n",
		base, healthy, len(st.Daemons), len(st.Shards))
	for name, pl := range st.Shards {
		fmt.Fprintf(os.Stderr, "pde-query:   shard %q -> %v (%d healthy)\n", name, pl.Replicas, pl.Healthy)
	}
}

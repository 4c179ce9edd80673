// Command pde-query is the client-side load generator and smoke driver
// for a running pde-serve daemon (-remote URL) or pde-cluster coordinator
// (-cluster URL: the same, plus a topology banner on stderr). It discovers
// the target -shard from /v1/stats, fires seeded traffic at it, fails on
// the first request that does, and reports what was delivered, as prose
// or -json on stdout. It builds no tables of its own and its qps line is
// a smoke reading: wall-clock numbers of record come from benchmark/.
// docs/serving.md ("pde-query: the load generator") has the long form.
//
//	[-workload estimate|nexthop|route] [-codec binary|json|wire] [-depth 16]
//	[-queries N] [-batch 4096] [-workers N] [-seed 1]
//
// fires a query stream in -batch sized requests from -workers concurrent
// clients (0 = GOMAXPROCS), each on its own warm connection. Routes are
// always JSON. -codec wire moves estimate and nexthop onto the PDE2
// raw-TCP protocol at the wire_addr /v1/stats advertises, -depth frames
// in flight per connection, and lists every generation fingerprint the
// answer frames were stamped with.
//
//	-setdist [-set-a 32] [-set-b 64] [-codec binary|json] [-naive] [-seed 1]
//
// fires one aggregate /v1/setdist query over two seeded member sets
// (-naive: the reference |A|×|B| evaluation instead of the pruned one).
//
//	-updates 50 [-update-seed 1] [-update-verify]
//
// regenerates the shard's graph from its spec and drives seeded
// single-edge ±1 reweights through /v1/update one at a time; the last
// published fingerprint must be the one the daemon then serves. A shard
// that is already mutated is refused: POST /v1/rebuild first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"pde/internal/cluster"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/server"
	"pde/internal/wire"
)

// options is the parsed command line.
type options struct {
	base, coordinator string // -remote and -cluster; exec points base at whichever was given
	shard             string
	workload, codec   string
	queries, workers  int
	batch, depth      int
	seed              int64
	asJSON            bool
	setDist, naive    bool
	setA, setB        int
	updates           int
	updateSeed        int64
	updateVerify      bool
	stdout, stderr    io.Writer // reports go to stdout, the cluster banner to stderr
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o := options{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("pde-query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.base, "remote", "", "base URL of a pde-serve daemon to fire at")
	fs.StringVar(&o.coordinator, "cluster", "", "base URL of a pde-cluster coordinator; like -remote but prints the cluster topology first and routes every request through the coordinator")
	fs.StringVar(&o.shard, "shard", "main", "shard to target")
	fs.IntVar(&o.queries, "queries", 1_000_000, "number of queries to fire")
	fs.IntVar(&o.workers, "workers", 1, "concurrent clients (0 = GOMAXPROCS)")
	fs.StringVar(&o.workload, "workload", "estimate", "estimate | nexthop | route")
	fs.Int64Var(&o.seed, "seed", 1, "query stream seed")
	fs.BoolVar(&o.asJSON, "json", false, "emit a JSON summary")
	fs.IntVar(&o.batch, "batch", 4096, "queries per request")
	fs.StringVar(&o.codec, "codec", "binary", "binary | json batch bodies, or wire for the PDE2 raw-TCP protocol (route is always json)")
	fs.IntVar(&o.depth, "depth", 16, "-codec wire: pipelined frames in flight per connection")
	fs.BoolVar(&o.setDist, "setdist", false, "fire one aggregate set-distance query instead of a batch stream")
	fs.IntVar(&o.setA, "set-a", 32, "-setdist: member count of set A (seeded sample of the shard's nodes)")
	fs.IntVar(&o.setB, "set-b", 64, "-setdist: member count of set B (seeded sample of the shard's nodes)")
	fs.BoolVar(&o.naive, "naive", false, "-setdist: request the naive |A|x|B| reference evaluation instead of the pruned engine")
	fs.IntVar(&o.updates, "updates", 0, "drive this many seeded single-edge reweights through /v1/update instead of a query stream")
	fs.Int64Var(&o.updateSeed, "update-seed", 1, "-updates: churn stream seed")
	fs.BoolVar(&o.updateVerify, "update-verify", false, "-updates: ask the daemon to verify every update against a from-scratch build before publishing")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.validate(); err != nil {
		if o.base == "" && o.coordinator == "" {
			fs.Usage()
		}
		fmt.Fprintf(stderr, "pde-query: %v\n", err)
		return 2
	}
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	if err := o.exec(context.Background()); err != nil {
		fmt.Fprintf(stderr, "pde-query: %v\n", err)
		return 1
	}
	return 0
}

// validate checks the flag combination of the selected mode once, up
// front, before anything is dialled.
func (o *options) validate() error {
	switch {
	case (o.base == "") == (o.coordinator == ""):
		return errors.New("point it at a daemon with -remote or at a coordinator with -cluster (one of the two)")
	case o.updates > 0: // the churn stream reads none of the flags below
	case o.setDist && o.codec != "binary" && o.codec != "json":
		return fmt.Errorf("unknown codec %q (-setdist wants binary or json)", o.codec)
	case o.setDist && (o.setA <= 0 || o.setB <= 0):
		return fmt.Errorf("-set-a and -set-b must be positive (got %d, %d)", o.setA, o.setB)
	case o.setDist:
	case o.queries <= 0:
		return errors.New("-queries must be positive")
	case o.workload != "estimate" && o.workload != "nexthop" && o.workload != "route":
		return fmt.Errorf("unknown workload %q (want estimate, nexthop or route)", o.workload)
	case o.codec != "binary" && o.codec != "json" && o.codec != "wire":
		return fmt.Errorf("unknown codec %q (want binary, json or wire)", o.codec)
	case o.codec == "wire" && o.workload == "route":
		return errors.New("the route workload is not part of the PDE2 wire protocol; use -codec binary or json")
	case o.batch <= 0:
		return errors.New("-batch must be positive")
	case o.codec == "wire" && o.depth <= 0:
		return errors.New("-depth must be positive")
	}
	return nil
}

// exec runs the one mode the flags select. A coordinator speaks a
// daemon's protocol, so cluster mode is remote mode pointed at it, after
// a banner that puts the daemons behind it in the run's log.
func (o *options) exec(ctx context.Context) error {
	if o.coordinator != "" {
		o.base = o.coordinator
		if err := describeCluster(ctx, o.base, o.stderr); err != nil {
			return err
		}
	}
	switch {
	case o.updates > 0:
		return o.runUpdates(ctx)
	case o.setDist:
		return o.runSetDist(ctx)
	}
	return o.runStream(ctx)
}

// target is what discover learns about the shard under test.
type target struct {
	client   *server.Client
	status   server.ShardStatus
	wireAddr string // dialable PDE2 endpoint; "" when the daemon serves none
}

// discover fetches /v1/stats once and resolves the shard's status and
// the daemon's wire endpoint (an unadvertised one stays "") from it.
func (o *options) discover(ctx context.Context) (*target, error) {
	client := &server.Client{BaseURL: o.base, Shard: o.shard}
	st, err := client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("fetching /v1/stats from %s: %w", o.base, err)
	}
	status, ok := st.Shards[o.shard]
	if !ok {
		return nil, fmt.Errorf("daemon has no shard %q (shards: %v)", o.shard, slices.Sorted(maps.Keys(st.Shards)))
	}
	return &target{client, status, server.ResolveWireAddr(o.base, st.WireAddr)}, nil
}

// nodeIDs is the one seeded generator behind query streams (V then S of
// each query) and member sets (A then B): uniform ids of an n-node shard.
func nodeIDs(seed int64, n int) func() int32 {
	rng := rand.New(rand.NewSource(seed))
	return func() int32 { return int32(rng.Intn(n)) }
}

// emit prints a run's report: v as indented JSON under -json, the prose
// lines otherwise.
func (o *options) emit(v any, prose ...string) error {
	if !o.asJSON {
		for _, line := range prose {
			fmt.Fprintln(o.stdout, "pde-query:", line)
		}
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	_, err = o.stdout.Write(append(data, '\n'))
	return err
}

// summary is the machine-readable report of a query-stream run.
type summary struct {
	Workload   string  `json:"workload"`
	Topology   string  `json:"topology"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	Queries    int     `json:"queries"`
	Workers    int     `json:"workers"`
	WallNS     int64   `json:"wall_ns"`
	QPS        float64 `json:"qps"`
	NSPerQuery float64 `json:"ns_per_query"`
	Remote     string  `json:"remote"`
	Shard      string  `json:"shard"`
	Batch      int     `json:"batch"`
	Codec      string  `json:"codec"`
	Depth      int     `json:"depth,omitempty"`
	RemoteFP   string  `json:"remote_fingerprint"`
	Delivered  int     `json:"delivered"`
	// WireFPs is every distinct generation fingerprint stamped on the
	// PDE2 answer frames of a -codec wire run, sorted: one in steady
	// state, the pre- and post-swap pair across a /v1/rebuild, and
	// anything else is a coherence violation.
	WireFPs []string `json:"wire_fingerprints,omitempty"`
}

// lane is one worker's warm connection to the shard: it sends a run of
// consecutive spans of the stream — one HTTP request, or one pipelined
// window of PDE2 frames — and counts the answers that came back ok.
type lane func(ctx context.Context, qs []oracle.Query, spans []server.Span) (delivered int, err error)

// runStream fires the query stream at the shard and reports what came
// back. Any failed request fails the run: lost answers measure nothing.
func (o *options) runStream(ctx context.Context) error {
	t, err := o.discover(ctx)
	if err != nil {
		return err
	}
	sum := summary{
		Workload: o.workload, Topology: t.status.Spec.Topology, N: t.status.N, M: t.status.M,
		Queries: o.queries, Workers: o.workers, Remote: o.base, Shard: o.shard,
		Batch: o.batch, Codec: o.codec, RemoteFP: t.status.Fingerprint,
	}

	// One fan-out for both transports: the stream is cut into batch-sized
	// spans, and a worker claims them a window at a time — one span per
	// HTTP request, -depth spans per pipelined PDE2 window.
	lanes, window := make([]lane, o.workers), 1
	var wires []*wireLane
	switch {
	case o.codec != "wire":
		if o.workload == "route" {
			sum.Codec = "json"
		}
		for w := range lanes {
			lanes[w] = httpLane(o.workload, o.codec == "json", &server.Client{BaseURL: o.base, Shard: o.shard,
				HTTP: &http.Client{Transport: server.DefaultTransport()}})
		}
	case t.wireAddr == "":
		return fmt.Errorf("daemon %s reports no wire endpoint in /v1/stats — start pde-serve with -wire-addr", o.base)
	default:
		sum.Depth, window = o.depth, o.depth
		for w := range lanes {
			wl, err := openWireLane(t.wireAddr, o.shard, o.depth, o.batch, o.workload == "nexthop")
			if err != nil {
				return fmt.Errorf("worker %d: %w", w, err)
			}
			defer wl.conn.Close()
			defer wl.pipe.Close() // first: it drains the frames still in flight
			lanes[w], wires = wl.fire, append(wires, wl)
		}
	}

	next := nodeIDs(o.seed, t.status.N)
	qs := make([]oracle.Query, o.queries)
	for i := range qs {
		qs[i] = oracle.Query{V: next(), S: next()}
	}
	spans := server.SplitSpans(len(qs), o.batch)
	windows := server.SplitSpans(len(spans), window)
	var delivered atomic.Int64
	t0 := time.Now()
	err = server.DriveBatches(o.workers, len(windows), func(w, i int) error {
		got, err := lanes[w](ctx, qs, spans[windows[i].Lo:windows[i].Hi])
		delivered.Add(int64(got))
		return err
	})
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("%s workload over %s: %w", o.workload, sum.Codec, err)
	}

	sum.Delivered = int(delivered.Load())
	sum.WallNS = wall.Nanoseconds()
	sum.QPS = float64(o.queries) / wall.Seconds()
	sum.NSPerQuery = float64(sum.WallNS) / float64(o.queries)
	seen := map[string]bool{}
	for _, wl := range wires {
		for fp := range wl.seen {
			seen[fmt.Sprintf("%016x", fp)] = true
		}
	}
	sum.WireFPs = slices.Sorted(maps.Keys(seen))
	return o.emit(&sum,
		fmt.Sprintf("remote %s/%s shard=%q n=%d (fingerprint %s, wire generations seen %v)",
			o.workload, o.base, o.shard, sum.N, sum.RemoteFP, sum.WireFPs),
		fmt.Sprintf("served %d queries (%d delivered) in %d-query %s batches, %d in flight on each of %d connection(s), in %.1fms: %.0f queries/sec (%.0f ns/query)",
			o.queries, sum.Delivered, o.batch, sum.Codec, window, o.workers, float64(sum.WallNS)/1e6, sum.QPS, sum.NSPerQuery))
}

func countAnswers(answers []oracle.Answer) (ok int) {
	for _, a := range answers {
		if a.OK {
			ok++
		}
	}
	return ok
}

func countHops(hops []wire.Hop) (ok int) {
	for _, h := range hops {
		if h.OK {
			ok++
		}
	}
	return ok
}

// httpLane sends each span as one request through c. Every worker gets
// a client with a Transport of its own, so its connection stays warm (one
// shared pool caps idle connections at MaxIdleConnsPerHost and re-dials
// the rest per batch); DefaultTransport's dial and response-header
// timeouts make a hung daemon fail the run instead of blocking it.
func httpLane(workload string, asJSON bool, c *server.Client) lane {
	return func(ctx context.Context, qs []oracle.Query, spans []server.Span) (ok int, err error) {
		for _, sp := range spans {
			part := qs[sp.Lo:sp.Hi]
			switch workload {
			case "estimate":
				answers, _, err := c.Estimate(ctx, part, asJSON)
				if err != nil {
					return ok, err
				}
				ok += countAnswers(answers)
			case "nexthop":
				hops, _, err := c.NextHop(ctx, part, asJSON)
				if err != nil {
					return ok, err
				}
				ok += countHops(hops)
			default: // route: validate admits no fourth workload
				pairs := make([]server.WirePair, len(part))
				for j, q := range part {
					pairs[j] = server.WirePair{From: q.V, To: q.S}
				}
				resp, err := c.Route(ctx, pairs)
				if err != nil {
					return ok, err
				}
				for _, rt := range resp.Routes {
					if rt.OK {
						ok++
					}
				}
			}
		}
		return ok, nil
	}
}

// wireLane is one persistent PDE2 connection bound to the shard with a
// depth-frame pipeline on it: fire submits a window of frames (they queue
// in flight), drains it with Wait and counts the decoded answers, the
// same end-to-end work as an HTTP lane.
type wireLane struct {
	conn    *wire.Conn
	pipe    *wire.Pipeline
	nexthop bool
	batch   int
	answers []oracle.Answer // batch slots per in-flight frame; hops on the nexthop workload
	hops    []wire.Hop
	results []wire.Result
	seen    map[uint64]bool // generations stamped on this lane's answer frames
}

func openWireLane(addr, shard string, depth, batch int, nexthop bool) (*wireLane, error) {
	conn, err := wire.DialTimeout(addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dialing wire endpoint %s: %w", addr, err)
	}
	l := &wireLane{conn: conn, nexthop: nexthop, batch: batch, seen: map[uint64]bool{}, results: make([]wire.Result, depth)}
	if _, _, err = conn.Bind(shard); err == nil {
		l.pipe, err = conn.NewPipeline(depth)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("binding %q on %s: %w", shard, addr, err)
	}
	if nexthop {
		l.hops = make([]wire.Hop, depth*batch)
	} else {
		l.answers = make([]oracle.Answer, depth*batch)
	}
	return l, nil
}

func (l *wireLane) fire(_ context.Context, qs []oracle.Query, spans []server.Span) (ok int, err error) {
	for j, sp := range spans {
		part, lo := qs[sp.Lo:sp.Hi], j*l.batch
		if l.nexthop {
			err = l.pipe.NextHop(part, l.hops[lo:lo+len(part)], &l.results[j])
		} else {
			err = l.pipe.Estimate(part, l.answers[lo:lo+len(part)], &l.results[j])
		}
		if err != nil {
			return 0, fmt.Errorf("submit: %w", err)
		}
	}
	if err := l.pipe.Wait(); err != nil {
		return 0, fmt.Errorf("pipeline: %w", err)
	}
	for j, sp := range spans {
		if err := l.results[j].Err; err != nil {
			return ok, fmt.Errorf("frame: %w", err)
		}
		l.seen[l.results[j].FP] = true
		if lo, hi := j*l.batch, j*l.batch+sp.Hi-sp.Lo; l.nexthop {
			ok += countHops(l.hops[lo:hi])
		} else {
			ok += countAnswers(l.answers[lo:hi])
		}
	}
	return ok, nil
}

// runSetDist samples two seeded member sets from the shard and fires one
// /v1/setdist query: both directed aggregates and the pruning accounting.
func (o *options) runSetDist(ctx context.Context) error {
	t, err := o.discover(ctx)
	if err != nil {
		return err
	}
	next := nodeIDs(o.seed, t.status.N)
	a, b := make([]int32, o.setA), make([]int32, o.setB)
	for i := range a {
		a[i] = next()
	}
	for i := range b {
		b[i] = next()
	}

	t0 := time.Now()
	resp, err := t.client.SetDist(ctx, a, b, o.naive, o.codec == "json")
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("setdist: %w", err)
	}

	return o.emit(struct {
		*server.SetDistResponse
		WallNS int64 `json:"wall_ns"`
	}{resp, wall.Nanoseconds()},
		fmt.Sprintf("setdist shard=%q n=%d |A|=%d |B|=%d codec=%s naive=%t (fingerprint %s)",
			o.shard, t.status.N, len(a), len(b), o.codec, o.naive, resp.Fingerprint),
		fmt.Sprintf("A->B %+v", resp.AB),
		fmt.Sprintf("B->A %+v", resp.BA),
		fmt.Sprintf("symmetric Hausdorff %g (finite %t) — evaluated %d of %d candidate pairs (%d pruned) in %.2fms",
			resp.Hausdorff, resp.HausdorffFinite, resp.Evaluated, resp.Pairs, resp.Pruned, float64(wall.Nanoseconds())/1e6))
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
// keeping a local mirror of the serving edge weights in lockstep so
// every change targets a live edge at its current weight.
func (o *options) runUpdates(ctx context.Context) error {
	t, err := o.discover(ctx)
	if err != nil {
		return err
	}
	if t.status.Mutated {
		return fmt.Errorf("shard %q is already mutated: its serving graph no longer matches its spec, so a client-side mirror cannot be reconstructed — POST /v1/rebuild first", o.shard)
	}
	sp := t.status.Spec.Normalized()
	g, err := sp.BuildGraph()
	if err != nil {
		return fmt.Errorf("regenerating shard %q graph from its spec: %w", o.shard, err)
	}
	if g.N() != t.status.N {
		return fmt.Errorf("regenerated graph has n=%d, shard reports n=%d", g.N(), t.status.N)
	}

	// Reweights never change the edge set, so the mirror is the edge
	// list: only the picked entry's weight moves.
	edges := make([]graph.Change, 0, g.M())
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		edges = append(edges, graph.Change{Op: graph.OpReweight, U: u, V: v, W: w})
	})
	rng := rand.New(rand.NewSource(o.updateSeed))
	sum := updateSummary{Shard: o.shard, Updates: o.updates}
	var damage float64
	t0 := time.Now()
	for step := 0; step < o.updates; step++ {
		pick := rng.Intn(len(edges))
		c := edges[pick]
		// ±1 by coin flip, except at the ends of [1, maxw].
		if c.W <= 1 || (c.W < graph.Weight(sp.MaxW) && rng.Intn(2) == 1) {
			c.W++
		} else {
			c.W--
		}
		resp, err := t.client.Update(ctx, server.UpdateRequest{
			Changes: []server.WireChange{{Op: "reweight", U: c.U, V: c.V, W: c.W}},
			Verify:  o.updateVerify,
		})
		if err != nil {
			return fmt.Errorf("step %d: /v1/update: %w", step, err)
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
		edges[pick].W = c.W
	}
	wall := time.Since(t0)
	sum.WallNS = wall.Nanoseconds()
	sum.AvgDamage = damage / float64(o.updates)
	sum.UpdatesPerSec = float64(o.updates) / wall.Seconds()

	// The stream's final generation must be what the daemon now serves.
	after, err := o.discover(ctx)
	if err != nil {
		return err
	}
	if after.status.Fingerprint != sum.Fingerprint {
		return fmt.Errorf("daemon serves %s but the last update published %s", after.status.Fingerprint, sum.Fingerprint)
	}
	if !after.status.Mutated {
		return fmt.Errorf("shard %q is not flagged mutated after %d updates", o.shard, o.updates)
	}
	return o.emit(&sum,
		fmt.Sprintf("churn shard=%q n=%d — %d updates (%d delta, %d rebuild, %d verified), avg damage %.3f",
			o.shard, g.N(), sum.Updates, sum.DeltaUpdates, sum.RebuildUpdates, sum.Verified, sum.AvgDamage),
		fmt.Sprintf("applied in %.1fms (%.1f updates/sec), serving fingerprint %s", float64(sum.WallNS)/1e6, sum.UpdatesPerSec, sum.Fingerprint))
}

// describeCluster prints the coordinator's topology, shards in name
// order, and fails if base is not a reachable pde-cluster coordinator.
func describeCluster(ctx context.Context, base string, stderr io.Writer) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	st, err := cluster.FetchStatus(ctx, base, nil)
	if err != nil {
		return fmt.Errorf("fetching /v1/cluster from %s: %w", base, err)
	}
	healthy := 0
	for _, d := range st.Daemons {
		if d.Healthy {
			healthy++
		}
	}
	fmt.Fprintf(stderr, "pde-query: cluster %s — %d/%d daemons healthy, %d shard(s)\n",
		base, healthy, len(st.Daemons), len(st.Shards))
	for _, name := range slices.Sorted(maps.Keys(st.Shards)) {
		pl := st.Shards[name]
		fmt.Fprintf(stderr, "pde-query:   shard %q -> %v (%d healthy)\n", name, pl.Replicas, pl.Healthy)
	}
	return nil
}

package bench

// This file is the network-boundary companion of query.go: where
// BENCH_query_*.json measures how fast a built table answers in-process
// calls, BENCH_serve_*.json measures the same tables behind the pde-serve
// daemon (internal/server) over a real loopback HTTP listener — codec,
// batching, scheduling and socket costs included. The acceptance bar is
// the ratio: end-to-end serving must keep at least half of the in-process
// throughput, or the serving layer is eating the oracle's speed.
//
// Since v2 the same run also measures the PDE2 raw-TCP wire path
// (internal/wire): the identical stream is fired through one persistent
// framed connection at pipeline depths 1, 4, 16 and 64, every answer is
// compared against the in-process baseline and every frame's generation
// fingerprint against the built tables, and the steady-state allocations
// per frame are recorded. The headline wire numbers come from the best
// depth ≥ 16; the acceptance bar there is ratio ≥ 1.0 — the framed
// protocol plus the daemon's frame-local locality sort must serve a
// random stream at least as fast as a single thread answers it
// in-process.
//
// # BENCH_serve_*.json schema (schema id "pde-serve/v2")
//
//	schema             string  – always "pde-serve/v2"
//	name               string  – scenario name (also in the filename)
//	workload           string  – estimate (the daemon's hot path)
//	topology, n, m, seed, params – instance description, as in pde-query/v1
//	queries            int     – point lookups fired end-to-end (n², a
//	                             seeded uniform random stream: the access
//	                             pattern real serving traffic has)
//	batch              int     – queries per HTTP request
//	clients            int     – concurrent client goroutines
//	build_ns           int64   – wall clock of the table construction
//	oracle_build_ns    int64   – wall clock of oracle.Compile
//	inproc_wall_ns     int64   – wall clock of the identical stream served
//	                             by a single-threaded in-process AnswerAll
//	                             (best of two passes, as is serve_wall_ns:
//	                             these are ~50ms measurements and one
//	                             scheduler hiccup on a 1-core box otherwise
//	                             dominates them)
//	inproc_qps         float64 – queries/sec of that pass
//	serve_wall_ns      int64   – wall clock of the end-to-end pass
//	serve_qps          float64 – queries/sec end-to-end over loopback
//	ratio              float64 – serve_qps / inproc_qps (acceptance: ≥ 0.5)
//	server_flushes     int64   – HTTP point-query requests the daemon answered
//	                             (one AnswerInto call each; nothing is coalesced)
//	server_avg_batch   float64 – average point lookups per request
//	answers_match      bool    – every end-to-end answer equals the
//	                             in-process one (a mismatch fails the run)
//	wire_wall_ns       int64   – wall clock of the stream over the PDE2
//	                             framed connection at the headline depth
//	                             (best of two passes, like serve_wall_ns)
//	wire_qps           float64 – queries/sec of that pass
//	wire_ratio         float64 – wire_qps / inproc_qps (acceptance: ≥ 1.0)
//	wire_depth         int     – pipeline depth of the headline pass (the
//	                             fastest depth ≥ 16 from the sweep)
//	wire_allocs_per_op float64 – heap allocations per frame, measured over
//	                             a full steady-state pass at the headline
//	                             depth (client and server share the
//	                             process, so this covers both ends)
//	wire_answers_match bool    – every wire answer equals the in-process
//	                             one AND every frame stamped the built
//	                             fingerprint (a mismatch fails the run)
//	wire_depths        array   – the full sweep: {depth, wall_ns, qps,
//	                             ratio} per pipeline depth
//	fingerprint        string  – build fingerprint of the served tables
//	                             (deterministic; guarded by pde-bench -check)
//	gomaxprocs         int     – scheduler width the run observed

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"runtime"
	"time"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/server"
	"pde/internal/wire"
)

// ServeSchemaID identifies the end-to-end serving report format.
const ServeSchemaID = "pde-serve/v2"

// WireDepths is the pipeline-depth sweep every serve scenario runs over
// the PDE2 framed connection. The headline wire numbers are taken from
// the fastest depth ≥ 16.
var WireDepths = []int{1, 4, 16, 64}

// ServeScenario is one cell of the end-to-end serving benchmark matrix.
type ServeScenario struct {
	// Name must start with "serve_" so the artifact is BENCH_serve_*.json.
	Name     string
	Topology string
	N        int
	Seed     int64
	Quick    bool
	Params   map[string]float64
	// Batch is the number of queries per HTTP request; Clients the number
	// of concurrent client goroutines firing them.
	Batch   int
	Clients int
	// Spec mirrors the scenario for the daemon's stats/rebuild surface.
	Spec server.Spec
	// PrepareKey shares built tables with query scenarios (QueryCache).
	PrepareKey string
	Build      func() *graph.Graph
	Prepare    func(g *graph.Graph, cfg congest.Config) (*core.Result, error)
}

// WireDepthResult is one pipeline-depth cell of the wire sweep.
type WireDepthResult struct {
	Depth  int     `json:"depth"`
	WallNS int64   `json:"wall_ns"`
	QPS    float64 `json:"qps"`
	Ratio  float64 `json:"ratio"`
}

// ServeReport is the BENCH_serve_*.json payload. See the schema comment.
type ServeReport struct {
	Schema         string             `json:"schema"`
	Name           string             `json:"name"`
	Workload       string             `json:"workload"`
	Topology       string             `json:"topology"`
	N              int                `json:"n"`
	M              int                `json:"m"`
	Seed           int64              `json:"seed"`
	Params         map[string]float64 `json:"params,omitempty"`
	Queries        int                `json:"queries"`
	Batch          int                `json:"batch"`
	Clients        int                `json:"clients"`
	BuildNS        int64              `json:"build_ns"`
	OracleBuildNS  int64              `json:"oracle_build_ns"`
	InprocWallNS   int64              `json:"inproc_wall_ns"`
	InprocQPS      float64            `json:"inproc_qps"`
	ServeWallNS    int64              `json:"serve_wall_ns"`
	ServeQPS       float64            `json:"serve_qps"`
	Ratio          float64            `json:"ratio"`
	ServerFlushes  int64              `json:"server_flushes"`
	ServerAvgBatch float64            `json:"server_avg_batch"`
	AnswersMatch   bool               `json:"answers_match"`

	WireWallNS       int64             `json:"wire_wall_ns"`
	WireQPS          float64           `json:"wire_qps"`
	WireRatio        float64           `json:"wire_ratio"`
	WireDepth        int               `json:"wire_depth"`
	WireAllocsPerOp  float64           `json:"wire_allocs_per_op"`
	WireAnswersMatch bool              `json:"wire_answers_match"`
	WireDepthSweep   []WireDepthResult `json:"wire_depths"`

	Fingerprint string `json:"fingerprint"`
	GoMaxProcs  int    `json:"gomaxprocs"`
}

// Filename returns the artifact name for this report.
func (r *ServeReport) Filename() string { return "BENCH_" + r.Name + ".json" }

// JSON marshals the report, indented for human diffing.
func (r *ServeReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// RunServeScenario builds (or reuses from cache) the scenario's tables,
// measures the in-process single-thread baseline over a deterministic
// query stream, then boots the daemon on a loopback listener and fires
// the identical stream through the binary batch codec from Clients
// concurrent goroutines. Every end-to-end answer is compared with the
// in-process one; any divergence is an error, so the benchmark doubles
// as the serving layer's equivalence check.
func RunServeScenario(s ServeScenario, cache *QueryCache) (*ServeReport, error) {
	var prep *preparedTables
	if cache != nil && s.PrepareKey != "" {
		prep = cache.m[s.PrepareKey]
	}
	var g *graph.Graph
	if prep != nil {
		g = prep.g
	} else {
		g = s.Build()
	}
	if s.N != 0 && s.N != g.N() {
		return nil, fmt.Errorf("bench %s: scenario says n=%d but graph has %d nodes", s.Name, s.N, g.N())
	}
	if prep == nil {
		t0 := time.Now()
		res, err := s.Prepare(g, congest.Config{Parallel: true})
		if err != nil {
			return nil, fmt.Errorf("bench %s: prepare: %w", s.Name, err)
		}
		prep = &preparedTables{
			g: g, res: res, o: oracle.Compile(res),
			buildNS: time.Since(t0).Nanoseconds(),
		}
		if cache != nil && s.PrepareKey != "" {
			cache.m[s.PrepareKey] = prep
		}
	}
	res, o := prep.res, prep.o

	n := g.N()
	batch := s.Batch
	if batch <= 0 {
		batch = 16384
	}
	clients := s.Clients
	if clients <= 0 {
		clients = 2
	}
	rep := &ServeReport{
		Schema:        ServeSchemaID,
		Name:          s.Name,
		Workload:      "estimate",
		Topology:      s.Topology,
		N:             n,
		M:             g.M(),
		Seed:          s.Seed,
		Params:        s.Params,
		Queries:       n * n,
		Batch:         batch,
		Clients:       clients,
		BuildNS:       prep.buildNS,
		OracleBuildNS: o.BuildTime.Nanoseconds(),
		Fingerprint:   fmt.Sprintf("%016x", res.Fingerprint()),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
	}

	// A seeded uniform random stream of n² queries — the access pattern a
	// daemon actually serves. (The query_* scenarios scan (v, s) in
	// order, which is 3-4x faster in-process purely from cache locality;
	// measuring the serving ratio against that ordered scan would charge
	// the wire for the bench's own artifact. The in-process baseline
	// below runs the identical random stream, so the ratio isolates
	// exactly what the network boundary costs.)
	qrng := rng(s.Seed + 7477)
	qs := make([]oracle.Query, n*n)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(qrng.Intn(n)), S: int32(qrng.Intn(n))}
	}
	// Collect the previous scenarios' garbage before timing anything: the
	// serve pass is the only allocation-heavy measurement in the matrix,
	// and inheriting a multi-GB pacer target from the construction
	// scenarios puts a full mark phase (hundreds of ms on one core)
	// inside a ~50ms pass.
	runtime.GC()
	// Both sides run the stream twice and keep the better wall: these
	// passes are tens of milliseconds, where a single scheduler hiccup on
	// a one-core box moves a single-shot measurement by 2x.
	want := make([]oracle.Answer, len(qs))
	var inprocWall time.Duration
	for pass := 0; pass < 2; pass++ {
		t0 := time.Now()
		o.AnswerAll(qs, want)
		if d := time.Since(t0); pass == 0 || d < inprocWall {
			inprocWall = d
		}
	}
	rep.InprocWallNS = inprocWall.Nanoseconds()
	rep.InprocQPS = qps(len(qs), inprocWall)

	srv, err := server.NewWithPrebuilt(server.Config{},
		server.Prebuilt{Name: "bench", Spec: s.Spec, G: g, Res: res, BuildNS: prep.buildNS})
	if err != nil {
		return nil, fmt.Errorf("bench %s: server: %w", s.Name, err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	// Fan batch-sized spans of the stream across the client goroutines;
	// each span's answers land back in its slice of got.
	spans := server.SplitSpans(len(qs), batch)
	got := make([]oracle.Answer, len(qs))
	cls := make([]*server.Client, clients)
	for c := range cls {
		cls[c] = &server.Client{BaseURL: ts.URL, Shard: "bench", HTTP: ts.Client()}
	}
	firePass := func() (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		err := server.DriveBatches(clients, len(spans), func(c, i int) error {
			answers, _, err := cls[c].Estimate(context.Background(), qs[spans[i].Lo:spans[i].Hi], false)
			if err != nil {
				return err
			}
			copy(got[spans[i].Lo:spans[i].Hi], answers)
			return nil
		})
		if err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	var serveWall time.Duration
	for pass := 0; pass < 2; pass++ {
		wall, err := firePass()
		if err != nil {
			return nil, fmt.Errorf("bench %s: end-to-end pass %d: %w", s.Name, pass, err)
		}
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("bench %s: end-to-end answer %d diverges on pass %d: got %+v, want %+v",
					s.Name, i, pass, got[i], want[i])
			}
		}
		if pass == 0 || wall < serveWall {
			serveWall = wall
		}
	}
	rep.AnswersMatch = true
	rep.ServeWallNS = serveWall.Nanoseconds()
	rep.ServeQPS = qps(len(qs), serveWall)
	if rep.InprocQPS > 0 {
		rep.Ratio = rep.ServeQPS / rep.InprocQPS
	}

	// The PDE2 wire path: the identical stream through one persistent
	// framed connection, swept over pipeline depths. The same spans feed
	// the pipeline as frames, so batch and access pattern match the HTTP
	// pass query-for-query.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench %s: wire listen: %w", s.Name, err)
	}
	ws := wire.Serve(ln, srv, wire.Config{MaxBatch: batch})
	defer ws.Close()
	wc, err := wire.Dial(ws.Addr())
	if err != nil {
		return nil, fmt.Errorf("bench %s: wire dial: %w", s.Name, err)
	}
	defer wc.Close()
	wn, fpRaw, err := wc.Bind("bench")
	if err != nil {
		return nil, fmt.Errorf("bench %s: wire bind: %w", s.Name, err)
	}
	if int(wn) != n || fmt.Sprintf("%016x", fpRaw) != rep.Fingerprint {
		return nil, fmt.Errorf("bench %s: wire bound n=%d fp=%016x, built n=%d fp=%s",
			s.Name, wn, fpRaw, n, rep.Fingerprint)
	}

	wgot := make([]oracle.Answer, len(qs))
	ress := make([]wire.Result, len(spans))
	wirePasses := 0
	// firePassWire clears wgot, streams every span through the pipeline,
	// and verifies fingerprints and answers — each pass re-proves
	// equivalence, exactly like the HTTP passes above.
	firePassWire := func(p *wire.Pipeline, gc bool) (time.Duration, error) {
		clear(wgot)
		if gc {
			runtime.GC()
		}
		t0 := time.Now()
		for i := range spans {
			if err := p.Estimate(qs[spans[i].Lo:spans[i].Hi], wgot[spans[i].Lo:spans[i].Hi], &ress[i]); err != nil {
				return 0, err
			}
		}
		if err := p.Wait(); err != nil {
			return 0, err
		}
		wall := time.Since(t0)
		wirePasses++
		for i := range ress {
			if ress[i].Err != nil {
				return 0, fmt.Errorf("frame %d: %w", i, ress[i].Err)
			}
			if ress[i].FP != fpRaw {
				return 0, fmt.Errorf("frame %d stamped fingerprint %016x, tables are %016x", i, ress[i].FP, fpRaw)
			}
		}
		for i := range want {
			if wgot[i] != want[i] {
				return 0, fmt.Errorf("answer %d diverges: got %+v, want %+v", i, wgot[i], want[i])
			}
		}
		return wall, nil
	}
	for _, depth := range WireDepths {
		p, err := wc.NewPipeline(depth)
		if err != nil {
			return nil, fmt.Errorf("bench %s: wire depth %d: %w", s.Name, depth, err)
		}
		var best time.Duration
		for pass := 0; pass < 2; pass++ {
			wall, err := firePassWire(p, true)
			if err != nil {
				p.Close()
				return nil, fmt.Errorf("bench %s: wire depth %d pass %d: %w", s.Name, depth, pass, err)
			}
			if pass == 0 || wall < best {
				best = wall
			}
		}
		if err := p.Close(); err != nil {
			return nil, fmt.Errorf("bench %s: wire depth %d close: %w", s.Name, depth, err)
		}
		cell := WireDepthResult{Depth: depth, WallNS: best.Nanoseconds(), QPS: qps(len(qs), best)}
		if rep.InprocQPS > 0 {
			cell.Ratio = cell.QPS / rep.InprocQPS
		}
		rep.WireDepthSweep = append(rep.WireDepthSweep, cell)
		if depth >= 16 && (rep.WireDepth == 0 || cell.QPS > rep.WireQPS) {
			rep.WireDepth = depth
			rep.WireWallNS = cell.WallNS
			rep.WireQPS = cell.QPS
			rep.WireRatio = cell.Ratio
		}
	}
	rep.WireAnswersMatch = true

	// Steady-state allocations per frame at the headline depth: one warm
	// pass sizes this pipeline's slot buffers, then a full pass inside a
	// ReadMemStats bracket measures exactly what the committed
	// AllocsPerRun guards promise — zero.
	p, err := wc.NewPipeline(rep.WireDepth)
	if err != nil {
		return nil, fmt.Errorf("bench %s: wire alloc pipeline: %w", s.Name, err)
	}
	if _, err := firePassWire(p, true); err != nil {
		p.Close()
		return nil, fmt.Errorf("bench %s: wire warm pass: %w", s.Name, err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := firePassWire(p, false); err != nil {
		p.Close()
		return nil, fmt.Errorf("bench %s: wire alloc pass: %w", s.Name, err)
	}
	runtime.ReadMemStats(&m1)
	if err := p.Close(); err != nil {
		return nil, fmt.Errorf("bench %s: wire alloc close: %w", s.Name, err)
	}
	rep.WireAllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(len(spans))

	cl := &server.Client{BaseURL: ts.URL, Shard: "bench", HTTP: ts.Client()}
	st, err := cl.Stats(context.Background())
	if err != nil {
		return nil, fmt.Errorf("bench %s: stats: %w", s.Name, err)
	}
	shard, ok := st.Shards["bench"]
	if !ok {
		return nil, fmt.Errorf("bench %s: stats is missing the bench shard", s.Name)
	}
	// Estimate counting is transport-agnostic: 2 HTTP passes plus every
	// wire pass all land in the same counter.
	fired := int64(2+wirePasses) * int64(len(qs))
	if shard.Queries.Estimate != fired {
		return nil, fmt.Errorf("bench %s: daemon counted %d estimate queries, fired %d",
			s.Name, shard.Queries.Estimate, fired)
	}
	if shard.Wire.Queries != int64(wirePasses)*int64(len(qs)) {
		return nil, fmt.Errorf("bench %s: daemon counted %d wire queries, fired %d",
			s.Name, shard.Wire.Queries, int64(wirePasses)*int64(len(qs)))
	}
	if shard.Fingerprint != rep.Fingerprint {
		return nil, fmt.Errorf("bench %s: daemon serves fingerprint %s, built %s",
			s.Name, shard.Fingerprint, rep.Fingerprint)
	}
	rep.ServerFlushes = shard.Batches.Flushes
	rep.ServerAvgBatch = shard.Batches.AvgQueries
	return rep, nil
}

// ServeScenarios returns the end-to-end serving matrix. The n=512 APSP
// cell shares its ~4s build with the query_*-apsp-n512 scenarios through
// the QueryCache and tracks the ≥50%-of-in-process acceptance bar; the
// n=256 cell shares the cluster scenario's build and tracks the wire
// path at half the headline frame size on quarter-size tables, where
// per-frame costs weigh heavier against the locality sort's payoff.
func ServeScenarios() []ServeScenario {
	apsp512 := func() *graph.Graph { return graph.RandomConnected(512, 8.0/512, 4, rng(4)) }
	apsp256 := func() *graph.Graph { return graph.RandomConnected(256, 8.0/256, 4, rng(4)) }
	apspPrepare := func(g *graph.Graph, cfg congest.Config) (*core.Result, error) {
		return core.Run(g, core.APSPParams(g.N(), 1), cfg)
	}
	return []ServeScenario{{
		Name:       "serve_estimate-apsp-n512",
		Topology:   "random",
		N:          512,
		Seed:       4,
		Quick:      true,
		Params:     map[string]float64{"eps": 1, "maxw": 4},
		Batch:      16384,
		Clients:    2,
		Spec:       server.Spec{Topology: "random", N: 512, Eps: 1, MaxW: 4, Seed: 4},
		PrepareKey: "apsp-random-n512-eps1",
		Build:      apsp512,
		Prepare:    apspPrepare,
	}, {
		Name:       "serve_estimate-apsp-n256",
		Topology:   "random",
		N:          256,
		Seed:       4,
		Quick:      true,
		Params:     map[string]float64{"eps": 1, "maxw": 4},
		Batch:      8192,
		Clients:    2,
		Spec:       server.Spec{Topology: "random", N: 256, Eps: 1, MaxW: 4, Seed: 4},
		PrepareKey: "apsp-random-n256-eps1",
		Build:      apsp256,
		Prepare:    apspPrepare,
	}}
}

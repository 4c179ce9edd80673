// Package server is the network face of the repository: a long-lived,
// sharded distance-query daemon over the unified scheme engine
// (internal/scheme). Each named shard is an independently built scenario
// (topology + PDE parameters + scheme: oracle | rtc | compact) compiled
// into its own immutable instance; each request's queries are answered
// by one call into the instance's batch path, on the handler's own
// goroutine — for oracle shards that is the same oracle.AnswerInto
// indexed lookup the in-process benchmarks measure, for rtc and compact
// it is the scheme's stateless per-query forwarding/estimation
// functions. The wire protocol, hot-swap semantics, route LRU and binary
// codec are identical for every backend.
//
// Hot swaps: a shard's tables live behind an atomic pointer. The admin
// /v1/rebuild endpoint constructs a complete replacement off to the side
// (different ε/h/σ, a fresh seed, even a different topology) and
// publishes it with one pointer swap — in-flight queries finish against
// the old tables, later ones see the new, and nothing is dropped or torn:
// every response carries the build fingerprint of the exact table
// generation that answered all of its queries.
//
// Endpoints (JSON unless noted; POST bodies, GET for health/stats):
//
//	POST /v1/estimate   batch of (v, s) point estimates
//	POST /v1/nexthop    batch of (v, s) next-hop decisions
//	POST /v1/route      batch of (from, to) full route expansions (LRU-cached)
//	POST /v1/setdist    aggregate set-to-set distances (Chamfer/Hausdorff/
//	                    mean-min over internal/setdist's pruned evaluation)
//	POST /v1/rebuild    rebuild a shard's tables and hot-swap them in
//	POST /v1/update     apply edge churn (reweight/insert/delete) to a
//	                    shard's graph, patching compiled tables in place
//	                    when the damage is small enough
//	GET  /v1/stats      per-shard counters, request shape, cache hit rate
//	GET  /healthz       liveness + shard inventory
//
// /v1/estimate, /v1/nexthop and /v1/setdist also speak the
// length-prefixed binary batch codec (see codec.go): send Content-Type
// application/x-pde-batch with ?shard= in the URL and the response body
// is the matching binary frame, with the table fingerprint in the
// X-Pde-Fingerprint header.
//
// Errors are always the JSON envelope {"error": {"code", "message"}}:
// 400 bad_request / out_of_range / empty_batch, 404 unknown_shard,
// 405 method_not_allowed, 413 batch_too_large, 500 build_failed /
// update_failed, 503 shutting_down.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"
	"pde/internal/wire"
)

// Config tunes the serving layer. The zero value gets the default.
type Config struct {
	// MaxBatch is the largest number of queries (or route pairs) one
	// request may carry (default 65536); bigger bodies are rejected with
	// 413.
	MaxBatch int
}

// routeCacheSize is the per-shard LRU capacity for expanded routes.
const routeCacheSize = 4096

// Server is the sharded query daemon. It implements http.Handler; wrap it
// in an http.Server (cmd/pde-serve) or httptest.Server (tests, bench).
// The shard set is fixed at construction; /v1/rebuild replaces a shard's
// tables in place.
type Server struct {
	cfg   Config
	slots map[string]*slot
	names []string // sorted shard names
	start time.Time
	mux   *http.ServeMux
	// closing is set by Close; point-query handlers answer 503
	// shutting_down once it is.
	closing atomic.Bool
	// wireAddr is the bound PDE2 listener address advertised in
	// /v1/stats; atomic because stats requests may race the daemon's
	// wire-listener boot.
	wireAddr atomic.Pointer[string]
}

// Prebuilt hands New already-constructed tables so callers that have paid
// for a build (bench, tests) can serve it without rebuilding. BuildNS is
// reported in stats.
type Prebuilt struct {
	Name    string
	Spec    Spec
	G       *graph.Graph
	Res     *core.Result
	BuildNS int64
}

// New builds every spec into its own shard and returns the daemon.
func New(specs map[string]Spec, cfg Config) (*Server, error) {
	built := make([]namedShard, 0, len(specs))
	for name, sp := range specs {
		sh, err := buildShard(sp)
		if err != nil {
			return nil, fmt.Errorf("shard %q: %w", name, err)
		}
		built = append(built, namedShard{name: name, sh: sh})
	}
	return assemble(cfg, built)
}

// NewWithPrebuilt assembles a daemon around tables built elsewhere.
func NewWithPrebuilt(cfg Config, shards ...Prebuilt) (*Server, error) {
	built := make([]namedShard, 0, len(shards))
	for _, p := range shards {
		sh, err := newShard(p.Spec, p.G, p.Res, p.BuildNS)
		if err != nil {
			return nil, fmt.Errorf("shard %q: %w", p.Name, err)
		}
		built = append(built, namedShard{name: p.Name, sh: sh})
	}
	return assemble(cfg, built)
}

type namedShard struct {
	name string
	sh   *shard
}

// assemble wires already-compiled shards into a serving daemon.
func assemble(cfg Config, shards []namedShard) (*Server, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("server: at least one shard is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = wire.DefaultMaxBatch
	}
	s := &Server{cfg: cfg, slots: make(map[string]*slot, len(shards)), start: time.Now()}
	for _, p := range shards {
		if p.name == "" {
			return nil, fmt.Errorf("server: shard name must be non-empty")
		}
		if _, dup := s.slots[p.name]; dup {
			return nil, fmt.Errorf("server: duplicate shard %q", p.name)
		}
		sl := &slot{name: p.name, cache: newRouteCache(routeCacheSize)}
		sl.swap(p.sh)
		s.slots[p.name] = sl
		s.names = append(s.names, p.name)
	}
	sort.Strings(s.names)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/estimate", func(w http.ResponseWriter, r *http.Request) { s.handlePoint(w, r, wire.FrameEstimate) })
	s.mux.HandleFunc("/v1/nexthop", func(w http.ResponseWriter, r *http.Request) { s.handlePoint(w, r, wire.FrameNextHop) })
	s.mux.HandleFunc("/v1/route", s.handleRoute)
	s.mux.HandleFunc("/v1/setdist", s.handleSetDist)
	s.mux.HandleFunc("/v1/rebuild", s.handleRebuild)
	s.mux.HandleFunc("/v1/update", s.handleUpdate)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// ServeHTTP dispatches to the endpoint handlers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close marks the daemon as shutting down: from here on /v1/estimate and
// /v1/nexthop answer the 503 shutting_down envelope, so a coordinator in
// front fails the request over to another replica without marking this
// daemon down. Requests already answering finish normally. The server
// owns no goroutines, so there is nothing to wait for; Close is safe to
// call at any time and more than once.
func (s *Server) Close() { s.closing.Store(true) }

// Shards returns the sorted shard names.
func (s *Server) Shards() []string { return append([]string(nil), s.names...) }

// Fingerprint returns the named shard's current build fingerprint.
func (s *Server) Fingerprint(name string) (string, bool) {
	sl, ok := s.slots[name]
	if !ok {
		return "", false
	}
	return sl.load().fp, true
}

// --- error envelope ----------------------------------------------------

// ErrorEnvelope is the body of every error response: {"error": {"code",
// "message"}} with the codes listed in the package comment.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries the machine-readable code and the human-readable
// message of an error response.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	// This is the envelope helper itself: the one WriteHeader every
	// error response in the package funnels through.
	w.WriteHeader(status) //pde:allow(errenvelope) the envelope helper's own status write
	json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeBinary sends a codec frame with an explicit Content-Length, so
// large batch responses skip chunked encoding and clients can read them
// into an exact-sized buffer.
func writeBinary(w http.ResponseWriter, shard, fp string, frame []byte) {
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Header().Set("X-Pde-Shard", shard)
	w.Header().Set("X-Pde-Fingerprint", fp)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// decodeJSON parses a JSON body capped at limit bytes, writing the
// protocol error itself on failure. The binary path rejects oversized
// bodies before allocating; this is the JSON side of the same guarantee
// — a multi-gigabyte body hits the cap, not the heap.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "request body exceeds %d bytes", tooBig.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "bad_request", "parsing JSON body: %v", err)
		}
		return false
	}
	return true
}

// jsonBatchLimit bounds a JSON batch body: generous per-query slack on
// top of the MaxBatch record count.
func (s *Server) jsonBatchLimit() int64 { return 4096 + 64*int64(s.cfg.MaxBatch) }

// requirePost returns false (having written the error) unless r is a POST.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "%s requires POST, got %s", r.URL.Path, r.Method)
		return false
	}
	return true
}

// --- wire types --------------------------------------------------------

// WireQuery is one (v, s) point query: the distance estimate (or next
// hop) at node v for source s.
type WireQuery struct {
	V int32 `json:"v"`
	S int32 `json:"s"`
}

// BatchRequest is the JSON body of /v1/estimate and /v1/nexthop.
type BatchRequest struct {
	Shard   string      `json:"shard"`
	Queries []WireQuery `json:"queries"`
}

// WireAnswer is one point estimate: the distance, its source entry, the
// first forwarding hop and the rounding instance it came from. OK false
// means the shard's tables have no entry for the pair (partial sweeps).
type WireAnswer struct {
	OK       bool    `json:"ok"`
	Dist     float64 `json:"dist"`
	Src      int32   `json:"src"`
	Via      int32   `json:"via"`
	Instance int32   `json:"instance"`
	Flag     uint8   `json:"flag"`
}

// EstimateResponse is the JSON reply of /v1/estimate, stamped with the
// build fingerprint of the table generation that answered every query.
type EstimateResponse struct {
	Shard       string       `json:"shard"`
	Fingerprint string       `json:"fingerprint"`
	Answers     []WireAnswer `json:"answers"`
}

// NexthopResponse is the JSON reply of /v1/nexthop.
type NexthopResponse struct {
	Shard       string `json:"shard"`
	Fingerprint string `json:"fingerprint"`
	Hops        []Hop  `json:"hops"`
}

// WirePair is one (from, to) route request pair.
type WirePair struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
}

// RouteRequest is the JSON body of /v1/route.
type RouteRequest struct {
	Shard string     `json:"shard"`
	Pairs []WirePair `json:"pairs"`
}

// WireRoute is one expanded route. An undeliverable pair sets OK false
// with the reason in Error — data, not an HTTP error.
type WireRoute struct {
	OK     bool         `json:"ok"`
	Path   []int        `json:"path,omitempty"`
	Weight graph.Weight `json:"weight,omitempty"`
	Cached bool         `json:"cached,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// RouteResponse is the JSON reply of /v1/route.
type RouteResponse struct {
	Shard       string      `json:"shard"`
	Fingerprint string      `json:"fingerprint"`
	Routes      []WireRoute `json:"routes"`
}

// --- batch ingestion ---------------------------------------------------

// isBinary reports whether the request body is the binary batch codec.
func isBinary(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeBinary)
}

// readBatch parses a query batch in either encoding, resolves its slot
// and checks the batch size, writing the protocol error itself when it
// returns ok=false. The ids are not yet validated: that needs a table
// generation, and handlePoint loads the one it also answers from.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request) (*slot, []oracle.Query, bool) {
	var shardName string
	var qs []oracle.Query
	if isBinary(r) {
		shardName = r.URL.Query().Get("shard")
		if shardName == "" {
			writeError(w, http.StatusBadRequest, "bad_request", "binary batches name the shard in the ?shard= query parameter")
			return nil, nil, false
		}
		// Read the exact announced length when the client sends one (the
		// hot path: no growth reallocs); fall back to a capped ReadAll.
		limit := int64(8 + (s.cfg.MaxBatch+1)*wire.QueryRecordSize)
		var body []byte
		var err error
		if cl := r.ContentLength; cl >= 0 && cl <= limit {
			body = make([]byte, cl)
			_, err = io.ReadFull(r.Body, body)
		} else if cl > limit {
			writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "batch exceeds the %d-query limit", s.cfg.MaxBatch)
			return nil, nil, false
		} else {
			body, err = io.ReadAll(io.LimitReader(r.Body, limit))
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
			return nil, nil, false
		}
		if count := (len(body) - 8) / wire.QueryRecordSize; count > s.cfg.MaxBatch {
			writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "batch exceeds the %d-query limit", s.cfg.MaxBatch)
			return nil, nil, false
		}
		qs, err = DecodeQueries(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "binary batch: %v", err)
			return nil, nil, false
		}
	} else {
		var req BatchRequest
		if !decodeJSON(w, r, &req, s.jsonBatchLimit()) {
			return nil, nil, false
		}
		shardName = req.Shard
		qs = make([]oracle.Query, len(req.Queries))
		for i, q := range req.Queries {
			qs[i] = oracle.Query{V: q.V, S: q.S}
		}
	}
	sl, ok := s.slots[shardName]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_shard", "no shard named %q (have %s)", shardName, strings.Join(s.names, ", "))
		return nil, nil, false
	}
	if len(qs) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", "batch carries no queries")
		return nil, nil, false
	}
	if len(qs) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "batch carries %d queries, limit is %d", len(qs), s.cfg.MaxBatch)
		return nil, nil, false
	}
	return sl, qs, true
}

// --- endpoint handlers -------------------------------------------------

// handlePoint serves /v1/estimate and /v1/nexthop, which differ only in
// the counter they bump and the records they encode: next hops are
// derived from the same table entries the estimates are. The one
// sl.load() below is the generation that validates the ids, answers them
// and stamps the response, so a rebuild that swaps the slot (or shrinks
// n) mid-request can neither tear the response nor drive a validated id
// out of bounds.
func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request, kind wire.FrameType) {
	if !requirePost(w, r) {
		return
	}
	sl, qs, ok := s.readBatch(w, r)
	if !ok {
		return
	}
	sh := sl.load()
	n := sh.NodeCount()
	for i, q := range qs {
		if !q.InRange(n) {
			writeError(w, http.StatusBadRequest, "out_of_range", "query %d: (v=%d, s=%d) outside [0, %d)", i, q.V, q.S, n)
			return
		}
	}
	// A draining daemon still answers, with a 5xx: behind pde-cluster the
	// request then fails over and this replica is not marked down.
	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "shard %q: server: shutting down", sl.name)
		return
	}
	answers := make([]oracle.Answer, len(qs))
	sh.AnswerInto(qs, answers, 0) // 0 workers = GOMAXPROCS
	sl.stats.recordBatch(1, len(qs))
	sl.stats.countPoint(kind, len(qs))

	binary := isBinary(r)
	if kind == wire.FrameNextHop {
		hops := make([]Hop, len(qs))
		for i, q := range qs {
			hops[i] = wire.DeriveHop(q, answers[i])
		}
		if binary {
			writeBinary(w, sl.name, sh.fp, EncodeHops(hops))
			return
		}
		writeJSON(w, &NexthopResponse{Shard: sl.name, Fingerprint: sh.fp, Hops: hops})
		return
	}
	if binary {
		writeBinary(w, sl.name, sh.fp, EncodeAnswers(answers))
		return
	}
	resp := EstimateResponse{Shard: sl.name, Fingerprint: sh.fp, Answers: make([]WireAnswer, len(answers))}
	for i, a := range answers {
		resp.Answers[i] = WireAnswer{
			OK: a.OK, Dist: a.Est.Dist, Src: a.Est.Src, Via: a.Est.Via,
			Instance: a.Est.Instance, Flag: a.Est.Flag,
		}
	}
	writeJSON(w, &resp)
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req RouteRequest
	if !decodeJSON(w, r, &req, s.jsonBatchLimit()) {
		return
	}
	sl, ok := s.slots[req.Shard]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_shard", "no shard named %q (have %s)", req.Shard, strings.Join(s.names, ", "))
		return
	}
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", "batch carries no route pairs")
		return
	}
	if len(req.Pairs) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "batch carries %d pairs, limit is %d", len(req.Pairs), s.cfg.MaxBatch)
		return
	}
	// One snapshot serves the whole request; the cache key carries its
	// fingerprint so a hot-swap can never serve a stale expansion.
	sh := sl.load()
	n := sh.NodeCount()
	for i, p := range req.Pairs {
		if !(oracle.Query{V: p.From, S: p.To}).InRange(n) {
			writeError(w, http.StatusBadRequest, "out_of_range", "pair %d: (from=%d, to=%d) outside [0, %d)", i, p.From, p.To, n)
			return
		}
	}
	resp := RouteResponse{Shard: sl.name, Fingerprint: sh.fp, Routes: make([]WireRoute, len(req.Pairs))}
	for i, p := range req.Pairs {
		key := routeCacheKey{fp: sh.fp, v: p.From, s: p.To}
		if rt, hit := sl.cache.get(key); hit {
			sl.stats.cacheHits.Add(1)
			resp.Routes[i] = WireRoute{OK: true, Path: rt.Path, Weight: rt.Weight, Cached: true}
			continue
		}
		sl.stats.cacheMisses.Add(1)
		rt, err := sh.inst.Route(int(p.From), p.To)
		if err != nil {
			resp.Routes[i] = WireRoute{OK: false, Error: err.Error()}
			continue
		}
		sl.cache.put(key, rt)
		resp.Routes[i] = WireRoute{OK: true, Path: rt.Path, Weight: rt.Weight}
	}
	sl.stats.routeQueries.Add(int64(len(req.Pairs)))
	writeJSON(w, &resp)
}

// RebuildRequest is the admin hot-swap body: the shard to rebuild plus
// any spec fields to override (absent fields keep their current value,
// so {"shard": "main", "seed": 7} regenerates the same scenario family
// with a fresh topology). Its JSON keys must stay scheme.Spec's plus
// "shard": the handler overlays the body on the current spec.
type RebuildRequest struct {
	Shard        string   `json:"shard"`
	Scheme       *string  `json:"scheme,omitempty"`
	Topology     *string  `json:"topology,omitempty"`
	N            *int     `json:"n,omitempty"`
	Eps          *float64 `json:"eps,omitempty"`
	MaxW         *int64   `json:"maxw,omitempty"`
	H            *int     `json:"h,omitempty"`
	Sigma        *int     `json:"sigma,omitempty"`
	Seed         *int64   `json:"seed,omitempty"`
	BuildWorkers *int     `json:"build_workers,omitempty"`
	K            *int     `json:"k,omitempty"`
	Strategy     *string  `json:"strategy,omitempty"`
	L0           *int     `json:"l0,omitempty"`
	SampleProb   *float64 `json:"sample_prob,omitempty"`
}

// RebuildResponse reports a hot swap: the fingerprints before and after,
// whether they differ, and the new build's cost and shape.
type RebuildResponse struct {
	Shard          string `json:"shard"`
	OldFingerprint string `json:"old_fingerprint"`
	NewFingerprint string `json:"new_fingerprint"`
	Changed        bool   `json:"changed"`
	BuildNS        int64  `json:"build_ns"`
	N              int    `json:"n"`
	M              int    `json:"m"`
	Spec           Spec   `json:"spec"`
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var body json.RawMessage
	if !decodeJSON(w, r, &body, 1<<20) {
		return
	}
	var req RebuildRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "parsing JSON body: %v", err)
		return
	}
	sl, ok := s.slots[req.Shard]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_shard", "no shard named %q (have %s)", req.Shard, strings.Join(s.names, ", "))
		return
	}
	// Serialize rebuilds per shard; queries keep flowing against the old
	// tables for the whole build and only the final pointer swap is
	// atomic.
	sl.buildMu.Lock()
	defer sl.buildMu.Unlock()

	// The request's keys are Spec's plus "shard", so decoding the body
	// onto the current spec overrides exactly the fields it carries.
	spec := sl.load().spec
	if err := json.Unmarshal(body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "parsing JSON body: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid spec: %v", err)
		return
	}
	sh, err := buildShard(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "build_failed", "rebuilding shard %q: %v", req.Shard, err)
		return
	}
	// Verify before publishing: the shard's stamped fingerprint must be
	// exactly the built instance's. Checking after the swap would write a
	// build_failed envelope for tables that are already serving — the old
	// bug this ordering fixes — so an inconsistent build is rejected here
	// and the slot keeps its current generation.
	if want := fmt.Sprintf("%016x", sh.inst.Fingerprint()); sh.fp != want {
		writeError(w, http.StatusInternalServerError, "build_failed", "built shard stamped %s, instance fingerprint is %s", sh.fp, want)
		return
	}
	oldFP := sl.swap(sh)
	sl.mutated.Store(false)
	writeJSON(w, &RebuildResponse{
		Shard:          req.Shard,
		OldFingerprint: oldFP,
		NewFingerprint: sh.fp,
		Changed:        oldFP != sh.fp,
		BuildNS:        sh.buildNS,
		N:              sh.g.N(),
		M:              sh.g.M(),
		Spec:           sh.spec,
	})
}

// --- stats & health ----------------------------------------------------

// BatchStats describes the shape of a shard's HTTP point-query
// requests. Every request is answered by its own AnswerInto call —
// nothing is coalesced — so Flushes equals Requests and AvgQueries is
// the mean request size; the block keeps its fields for the consumers
// that read them.
type BatchStats struct {
	Flushes    int64   `json:"flushes"`
	Requests   int64   `json:"requests"`
	Queries    int64   `json:"queries"`
	AvgQueries float64 `json:"avg_queries"`
	MaxQueries int64   `json:"max_queries"`
}

// CacheStats is the route LRU's hit accounting.
type CacheStats struct {
	Size    int     `json:"size"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// QueryCounts is the per-endpoint serving tally in /v1/stats. SetDist
// counts candidate pairs (2·|A|·|B| per request), the endpoint's
// point-lookup equivalent.
type QueryCounts struct {
	Estimate int64 `json:"estimate"`
	NextHop  int64 `json:"nexthop"`
	Route    int64 `json:"route"`
	SetDist  int64 `json:"setdist"`
	Total    int64 `json:"total"`
}

// WireStats is the PDE2 raw-TCP share of a shard's traffic: answer
// frames served and the point lookups they carried (those lookups are
// also included in the per-endpoint QueryCounts).
type WireStats struct {
	Frames  int64 `json:"frames"`
	Queries int64 `json:"queries"`
}

// ShardStatus is one shard's entry in /v1/stats.
type ShardStatus struct {
	Spec   Spec   `json:"spec"`
	Scheme string `json:"scheme"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	// Accounting is the per-scheme cost sheet: table bytes, label bits,
	// measured stretch, build rounds.
	Accounting     scheme.Accounting `json:"accounting"`
	Fingerprint    string            `json:"fingerprint"`
	Builds         int64             `json:"builds"`
	LastSwapUnixNS int64             `json:"last_swap_unix_ns"`
	BuildNS        int64             `json:"build_ns"`
	// Updates counts /v1/update batches applied; DeltaUpdates the subset
	// the incremental patch path served (the rest fell back to a full
	// rebuild). Mutated means churn has drifted the serving graph away
	// from the one Spec generates, so Spec alone no longer reproduces
	// the tables (a /v1/rebuild clears it).
	Updates          int64 `json:"updates"`
	DeltaUpdates     int64 `json:"delta_updates"`
	LastUpdateUnixNS int64 `json:"last_update_unix_ns"`
	Mutated          bool  `json:"mutated"`
	// OracleEntries / OracleBytes predate the scheme registry and mirror
	// Accounting.Entries / Accounting.TableBytes for every backend; kept
	// so pre-registry stats consumers keep working.
	OracleEntries int         `json:"oracle_entries"`
	OracleBytes   int64       `json:"oracle_bytes"`
	Queries       QueryCounts `json:"queries"`
	QPS           float64     `json:"qps"`
	Batches       BatchStats  `json:"batches"`
	RouteCache    CacheStats  `json:"route_cache"`
	Wire          WireStats   `json:"wire"`
}

// StatsResponse is the reply of /v1/stats. WireAddr is the daemon's
// PDE2 raw-TCP listener address when one is serving ("" otherwise); it
// is how pde-query -codec wire and the cluster coordinator discover the
// wire endpoint without extra configuration.
type StatsResponse struct {
	UptimeNS   int64                  `json:"uptime_ns"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	WireAddr   string                 `json:"wire_addr,omitempty"`
	Shards     map[string]ShardStatus `json:"shards"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "%s requires GET, got %s", r.URL.Path, r.Method)
		return
	}
	uptime := time.Since(s.start)
	resp := StatsResponse{
		UptimeNS:   uptime.Nanoseconds(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		WireAddr:   s.WireAddr(),
		Shards:     make(map[string]ShardStatus, len(s.slots)),
	}
	for name, sl := range s.slots {
		sh := sl.load()
		st := &sl.stats
		qc := QueryCounts{
			Estimate: st.estimateQueries.Load(),
			NextHop:  st.nexthopQueries.Load(),
			Route:    st.routeQueries.Load(),
			SetDist:  st.setdistPairs.Load(),
		}
		qc.Total = qc.Estimate + qc.NextHop + qc.Route + qc.SetDist
		bs := BatchStats{
			Flushes:    st.batches.Load(),
			Requests:   st.batchedRequests.Load(),
			Queries:    st.batchedQueries.Load(),
			MaxQueries: st.maxBatch.Load(),
		}
		if bs.Flushes > 0 {
			bs.AvgQueries = float64(bs.Queries) / float64(bs.Flushes)
		}
		cs := CacheStats{Size: sl.cache.len(), Hits: st.cacheHits.Load(), Misses: st.cacheMisses.Load()}
		if lookups := cs.Hits + cs.Misses; lookups > 0 {
			cs.HitRate = float64(cs.Hits) / float64(lookups)
		}
		acct := sh.inst.Accounting()
		status := ShardStatus{
			Spec:             sh.spec,
			Scheme:           sh.inst.Scheme(),
			N:                sh.g.N(),
			M:                sh.g.M(),
			Accounting:       acct,
			Fingerprint:      sh.fp,
			Builds:           st.builds.Load(),
			LastSwapUnixNS:   st.lastSwapUnixNS.Load(),
			BuildNS:          sh.buildNS,
			Updates:          st.updates.Load(),
			DeltaUpdates:     st.deltaUpdates.Load(),
			LastUpdateUnixNS: st.lastUpdateUnixNS.Load(),
			Mutated:          sl.mutated.Load(),
			OracleEntries:    acct.Entries,
			OracleBytes:      acct.TableBytes,
			Queries:          qc,
			Batches:          bs,
			RouteCache:       cs,
			Wire:             WireStats{Frames: st.wireFrames.Load(), Queries: st.wireQueries.Load()},
		}
		if secs := uptime.Seconds(); secs > 0 {
			status.QPS = float64(qc.Total) / secs
		}
		resp.Shards[name] = status
	}
	writeJSON(w, &resp)
}

// HealthResponse is the reply of /healthz.
type HealthResponse struct {
	Status   string   `json:"status"`
	UptimeNS int64    `json:"uptime_ns"`
	Shards   []string `json:"shards"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "%s requires GET, got %s", r.URL.Path, r.Method)
		return
	}
	writeJSON(w, &HealthResponse{
		Status:   "ok",
		UptimeNS: time.Since(s.start).Nanoseconds(),
		Shards:   s.Shards(),
	})
}

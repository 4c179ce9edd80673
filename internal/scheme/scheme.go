// Package scheme is the unified engine behind every servable
// distance/routing scheme in the repository: one registry, one Spec, one
// Instance interface, three backends.
//
//   - oracle: the compiled CSR tables of internal/oracle over a PDE
//     result (Theorem 4.1 APSP or a partial (S, h, σ) sweep).
//   - rtc: Theorem 4.5 routing-table construction (skeleton + spanner +
//     tree-label routing), stretch 6k−1+o(1), k-parameterized.
//   - compact: the §4.3 Thorup–Zwick hierarchy, stretch 4k−3+o(1), with
//     the Lemma 4.12 truncation strategies.
//
// A Spec fully describes one buildable instance — topology, PDE knobs,
// scheme and its parameters — and Build is deterministic in it: the same
// Spec always yields the same Fingerprint, which the serving layer
// (internal/server) stamps on every response as the table generation id.
// Each backend is a thin adapter over its construction package
// (internal/oracle, internal/rtc, internal/compact): every instance
// keeps one record of its build (spec, graph, cost, accounting,
// fingerprint), and rtc and compact share one serving half, so a backend
// supplies only its construction and its per-query answers.
//
// Instances are immutable after Build and safe for any number of
// concurrent readers; AnswerInto may fan a batch across workers because
// every answer is computed independently from read-only tables.
// DistsWithin answers a batch on the calling goroutine, distances only,
// bounded by what the caller can still use.
package scheme

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
)

// Spec describes everything needed to (re)build one scheme instance. It
// is the JSON body of the server's shard specs and /v1/rebuild overrides
// and appears verbatim in /v1/stats, so a shard's tables are always
// reproducible from what the daemon reports.
type Spec struct {
	// Scheme selects the backend: oracle (default when empty) | rtc |
	// compact.
	Scheme string `json:"scheme,omitempty"`
	// Topology is one of the graph.Generators families; see
	// graph.GeneratorList().
	Topology string `json:"topology"`
	// N is the requested node count. Grid-shaped topologies round it up
	// to the next perfect square; the instance reports the actual size.
	N int `json:"n"`
	// Eps is the PDE approximation slack ε > 0.
	Eps float64 `json:"eps"`
	// MaxW is the maximum edge weight.
	MaxW int64 `json:"maxw"`
	// H and Sigma are the partial-sweep hop bound and list size for the
	// oracle scheme (both 0 means full APSP; partial sweeps mark every
	// third node a source). For rtc they override the
	// derived h = σ = C·ln(n)/p when positive; compact derives its own
	// per-level h and σ and rejects nonzero values.
	H     int `json:"h"`
	Sigma int `json:"sigma"`
	// Seed drives the graph generator and every sampling decision the
	// scheme build makes (skeletons, hierarchy levels, the spanner).
	Seed int64 `json:"seed"`
	// BuildWorkers is the parallel table-build pool width (0 = GOMAXPROCS).
	BuildWorkers int `json:"build_workers,omitempty"`
	// K is the stretch parameter of the rtc (routes ≤ 6k−1+o(1), default
	// 2) and compact (routes ≤ 4k−3+o(1), default 3) schemes; ignored by
	// oracle.
	K int `json:"k,omitempty"`
	// Strategy selects how a truncated compact hierarchy (L0 > 0) runs
	// its upper levels: simulate (default) | broadcast; none is the
	// untruncated hierarchy. Ignored by oracle and rtc.
	Strategy string `json:"strategy,omitempty"`
	// L0 is the compact truncation level (0 = no truncation).
	L0 int `json:"l0,omitempty"`
	// SampleProb, when positive, overrides a sampling probability of the
	// scheme: rtc's skeleton probability p = n^{-1/2-1/(4k)}, and
	// compact's per-level keep probability n^{-1/k} (compact.Params
	// SampleBase). Either way it is the knob that forces the long-range
	// machinery at simulable scale; oracle ignores it.
	SampleProb float64 `json:"sample_prob,omitempty"`
}

// Normalized fills the defaults a zero-valued field stands for and folds
// spellings that build the same tables into one, so the spec an Instance
// reports is the complete and canonical recipe of its tables: Scheme
// "" → oracle, K 0 → the backend default, and a compact Strategy that
// follows L0 — an untruncated hierarchy (L0 = 0) is none whatever was
// asked, a truncated one simulates unless it broadcasts.
func (sp Spec) Normalized() Spec {
	if sp.Scheme == "" {
		sp.Scheme = "oracle"
	}
	switch sp.Scheme {
	case "rtc":
		if sp.K == 0 {
			sp.K = 2
		}
	case "compact":
		if sp.K == 0 {
			sp.K = 3
		}
		switch sp.Strategy {
		case "", "none", "simulate", "broadcast":
			if sp.L0 == 0 {
				sp.Strategy = "none"
			} else if sp.Strategy != "broadcast" {
				sp.Strategy = "simulate"
			}
		}
	}
	return sp
}

// Validate rejects specs no backend can build. It accepts both raw and
// normalized specs.
func (sp Spec) Validate() error {
	sp = sp.Normalized()
	if _, ok := backends[sp.Scheme]; !ok {
		return fmt.Errorf("unknown scheme %q (want compact | oracle | rtc)", sp.Scheme)
	}
	if !graph.IsGenerator(sp.Topology) {
		return fmt.Errorf("unknown topology %q (want %s)", sp.Topology, graph.GeneratorList())
	}
	if sp.N < 2 {
		return fmt.Errorf("n must be >= 2, got %d", sp.N)
	}
	if sp.Eps <= 0 {
		return fmt.Errorf("eps must be > 0, got %g", sp.Eps)
	}
	if sp.MaxW < 1 {
		return fmt.Errorf("maxw must be >= 1, got %d", sp.MaxW)
	}
	if sp.H < 0 || sp.Sigma < 0 {
		return fmt.Errorf("h and sigma must be >= 0, got h=%d sigma=%d", sp.H, sp.Sigma)
	}
	switch sp.Scheme {
	case "rtc":
		if sp.K < 1 {
			return fmt.Errorf("rtc needs k >= 1, got %d", sp.K)
		}
	case "compact":
		if sp.K < 2 {
			return fmt.Errorf("compact needs k >= 2, got %d", sp.K)
		}
		if sp.H != 0 || sp.Sigma != 0 {
			return fmt.Errorf("compact derives h and sigma from k; leave them 0")
		}
		switch sp.Strategy {
		case "none", "simulate", "broadcast":
		default:
			return fmt.Errorf("unknown strategy %q (want none | simulate | broadcast)", sp.Strategy)
		}
		if sp.L0 < 0 || sp.L0 > sp.K-1 {
			return fmt.Errorf("l0=%d out of range [0,%d]", sp.L0, sp.K-1)
		}
	}
	if sp.SampleProb < 0 || sp.SampleProb >= 1 {
		return fmt.Errorf("sample_prob must be in [0,1), got %g", sp.SampleProb)
	}
	return nil
}

// BuildGraph generates the spec's topology, deterministic in Seed.
func (sp Spec) BuildGraph() (*graph.Graph, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return graph.Generate(sp.Topology, sp.N, graph.Weight(sp.MaxW), rand.New(rand.NewSource(sp.Seed)))
}

// Params returns the oracle scheme's PDE parameters for a graph of the
// actual size n.
func (sp Spec) Params(n int) core.Params {
	if sp.H == 0 && sp.Sigma == 0 {
		return core.APSPParams(n, sp.Eps)
	}
	src := make([]bool, n)
	for v := 0; v < n; v += 3 {
		src[v] = true
	}
	h, sigma := sp.H, sp.Sigma
	if h <= 0 {
		h = n
	}
	if sigma <= 0 {
		sigma = n
	}
	return core.Params{IsSource: src, H: h, Sigma: sigma, Epsilon: sp.Eps}
}

// Accounting is the per-scheme cost sheet /v1/stats and the scheme bench
// report: how much table a node stores, how big its labels are, and what
// stretch the tables actually deliver (measured on a seeded probe set of
// routes against exact Dijkstra distances, not assumed from the theorem).
type Accounting struct {
	Scheme string `json:"scheme"`
	// TableBytes is the total serving-table footprint; Entries its
	// natural unit (compiled (node, source) pairs for oracle, table words
	// for rtc/compact).
	TableBytes int64 `json:"table_bytes"`
	Entries    int   `json:"entries"`
	// MaxLabelBits / AvgLabelBits are the destination-label sizes routing
	// needs: ⌈log n⌉ for oracle, O(log n) for rtc, O(k log n) for compact.
	MaxLabelBits int     `json:"max_label_bits"`
	AvgLabelBits float64 `json:"avg_label_bits"`
	// StretchBound is the paper's guarantee (1+ε, 6k−1, 4k−3);
	// MeasuredStretch / MeanStretch what ProbeRoutes sampled routes
	// actually achieved.
	StretchBound    float64 `json:"stretch_bound"`
	MeasuredStretch float64 `json:"measured_stretch"`
	MeanStretch     float64 `json:"mean_stretch"`
	ProbeRoutes     int     `json:"probe_routes"`
	// BuildRounds is the CONGEST round budget the construction charged.
	BuildRounds int `json:"build_rounds"`
}

// Instance is one built, immutable scheme: tables plus the query surface
// the daemon serves. All methods are safe for concurrent use.
type Instance interface {
	// Scheme returns the backend name ("oracle" | "rtc" | "compact").
	Scheme() string
	// Spec returns the normalized spec the instance was built from — the
	// complete reproducible recipe of its tables.
	Spec() Spec
	// Graph returns the generated topology.
	Graph() *graph.Graph
	// Fingerprint is the deterministic digest of the built tables; equal
	// specs build equal fingerprints.
	Fingerprint() uint64
	// BuildNS is the wall clock the construction took.
	BuildNS() int64
	// AnswerInto fills out[i] with the scheme's answer to qs[i]: Dist is
	// the scheme's distance estimate from V to S, Via the scheme's first
	// forwarding hop toward S (-1 when the scheme cannot forward), OK
	// whether an estimate exists. len(out) must equal len(qs); workers
	// fans the batch out (0 = GOMAXPROCS, 1 = sequential).
	AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int)
	// DistsWithin is the distance-only, bounded face of AnswerInto for
	// callers that keep only estimates below a running best: out[i] is
	// exactly the Dist AnswerInto gives qs[i] (+Inf for a miss) wherever
	// that value is < ub, and otherwise some value ≥ ub, so a backend
	// may stop work on a query as soon as it cannot beat ub. It answers
	// on the calling goroutine and allocates nothing. len(out) must
	// equal len(qs).
	DistsWithin(qs []oracle.Query, ub float64, out []float64)
	// Route expands the scheme's full route from v to s.
	Route(v int, s int32) (*core.Route, error)
	// Accounting reports the scheme's table/label/stretch numbers.
	Accounting() Accounting
}

// backends is the one registry of builds and updates: each backend builds
// its Instance from a normalized, validated spec over an explicit graph,
// handing each PDE it runs the matching result of prev, the served
// instance on an update (nil for a cold build). The stats are what the
// build ran, Path aside.
var backends = map[string]func(sp Spec, g *graph.Graph, prev Instance) (Instance, UpdateStats, error){
	"oracle":  buildOracle,
	"rtc":     buildRTC,
	"compact": buildCompact,
}

// Build generates sp's topology and builds its backend over it. The
// returned instance's Spec() is the normalized spec.
func Build(sp Spec) (Instance, error) {
	g, err := sp.BuildGraph()
	if err != nil {
		return nil, err
	}
	return BuildOn(sp, g)
}

// BuildOn validates and normalizes sp, then builds its backend over g —
// the generated topology for Build, a mutated serving graph for updates.
// The graph must use dense ids [0, g.N()) and be connected, like every
// generated topology.
func BuildOn(sp Spec, g *graph.Graph) (Instance, error) {
	inst, _, err := build(sp, g, nil)
	return inst, err
}

// build is BuildOn handed a predecessor (see backends).
func build(sp Spec, g *graph.Graph, prev Instance) (Instance, UpdateStats, error) {
	sp = sp.Normalized()
	if err := sp.Validate(); err != nil {
		return nil, UpdateStats{}, err
	}
	inst, st, err := backends[sp.Scheme](sp, g, prev)
	if err != nil {
		return nil, st, fmt.Errorf("scheme %s: %w", sp.Scheme, err)
	}
	return inst, st, nil
}

// --- shared backend plumbing -------------------------------------------

// record is what every backend keeps of a built instance, and the
// Instance methods that only read it. fp digests the tables on first use
// and holds the digest: a generation's identity is asked for many times
// (stamp, stats, divergence probes) and walking the tables costs
// milliseconds — but not inside the build, which never needs it. The
// tables are immutable once served, so the first digest is the
// generation's identity.
type record struct {
	Sp      Spec
	Gr      *graph.Graph
	buildNS int64
	acct    Accounting
	fp      func() uint64
}

// init records a build, then completes its accounting with the stretch
// the instance's routes measure (see measureStretch) and returns that
// probe; pb.route may read the record.
func (r *record) init(sp Spec, g *graph.Graph, buildNS int64, fp func() uint64, acct Accounting, pb prober) (stretchProbe, error) {
	*r = record{Sp: sp, Gr: g, buildNS: buildNS, fp: sync.OnceValue(fp)}
	pr, err := measureStretch(g, sp.Seed, pb)
	acct.MeasuredStretch, acct.MeanStretch, acct.ProbeRoutes = pr.max, pr.mean, pr.routes
	r.acct = acct
	return pr, err
}

func (r *record) Scheme() string         { return r.acct.Scheme }
func (r *record) Spec() Spec             { return r.Sp }
func (r *record) Graph() *graph.Graph    { return r.Gr }
func (r *record) BuildNS() int64         { return r.buildNS }
func (r *record) Accounting() Accounting { return r.acct }
func (r *record) Fingerprint() uint64    { return r.fp() }

// probe parameters: sources × targets sampled per instance for the
// measured-stretch accounting. Small enough to keep Build cheap, large
// enough that a broken scheme cannot hide.
const (
	probeSources = 8
	probeTargets = 24
)

// prober is how an instance is probed. route expands a route;
// candidates(v) lists the destinations the scheme guarantees routable
// from v (nil = every node). With record set the probe keeps each
// source's measurement, and prev, when keep is non-nil, is the previous
// generation's: a source whose measurement keep accepts is taken over
// instead of measured again.
type prober struct {
	route      func(v int, s int32) (*core.Route, error)
	candidates func(v int) []int32
	record     bool
	prev       []*probeSource
	keep       func(*probeSource) bool
}

// probeSource is what the probe measured from one source.
type probeSource struct {
	v int32
	// count is the number of v's candidates: the draws its targets took
	// from the probe's rng.
	count int
	// settled holds, ascending, every node the search from v settles
	// within the distance of the farthest target it routed to; route, the
	// nodes of its routes, ascending and once each. Its distances depend
	// on the weights of the edges at settled nodes alone, and its routes
	// on the rows of the route nodes and the weights of their edges.
	settled, route []int32
	// stretches holds each route's stretch, in draw order.
	stretches []float64
}

// stretchProbe is a probe's accounting, and with prober.record its
// sources in draw order and how many of them it took over.
type stretchProbe struct {
	max, mean float64
	routes    int
	sources   []*probeSource
	reused    int
}

// measureStretch routes a seeded probe set and compares each delivered
// weight against the exact Dijkstra distance. The probe draws its targets
// from v's candidates, so its search from v stops once they are all
// settled. A route error on a guaranteed-routable pair is a build error:
// the accounting doubles as a construction sanity check.
//
// A source pb.keep accepts is taken over from pb.prev: its stretches are
// added in draw order, so the accounting is bit-identical to measuring
// it, and the rng draws, before the next source it measures, what
// measuring it would have drawn. Only a source measured with as many
// candidates as its predecessor leaves the rng where the previous probe
// had it, so after one that was not, no source is taken over.
func measureStretch(g *graph.Graph, seed int64, pb prober) (stretchProbe, error) {
	n := g.N()
	// Seeding the rng costs more than taking a source over, so it is
	// seeded at the first source measured, and then makes the draws of
	// the sources taken over before it (drawn counts the sources whose
	// draws it has made).
	var rng *rand.Rand
	drawn := 0
	var pr stretchProbe
	if pb.record {
		pr.sources = make([]*probeSource, 0, probeSources)
	}
	aligned := pb.keep != nil
	var sum float64
	for i := 0; i < probeSources; i++ {
		var src *probeSource
		if aligned && i < len(pb.prev) && pb.keep(pb.prev[i]) {
			src = pb.prev[i]
			pr.reused++
		} else {
			if rng == nil {
				rng = rand.New(rand.NewSource(seed ^ 0x5eed5eed))
			}
			for ; drawn < i; drawn++ {
				rng.Intn(n)
				for j, c := 0, pb.prev[drawn].count; j < probeTargets && c > 0; j++ {
					rng.Intn(c)
				}
			}
			var err error
			if src, err = probeFrom(g, rng.Intn(n), rng, pb); err != nil {
				return stretchProbe{}, err
			}
			drawn = i + 1
			aligned = aligned && i < len(pb.prev) && src.count == pb.prev[i].count
		}
		for _, st := range src.stretches {
			pr.max = max(pr.max, st)
			sum += st
			pr.routes++
		}
		if pb.record {
			pr.sources = append(pr.sources, src)
		}
	}
	if pr.routes > 0 {
		pr.mean = sum / float64(pr.routes)
	}
	return pr, nil
}

// probeFrom measures the probe's routes from v, drawing its targets from
// rng; the nodes it read are kept with pb.record.
func probeFrom(g *graph.Graph, v int, rng *rand.Rand, pb prober) (*probeSource, error) {
	var targets []int32
	if pb.candidates != nil {
		targets = pb.candidates(v)
	}
	src := &probeSource{v: int32(v), count: len(targets)}
	sp := graph.DijkstraTo(g, v, targets)
	var far graph.Weight
	for j := 0; j < probeTargets; j++ {
		var s int32
		if targets != nil {
			if len(targets) == 0 {
				break
			}
			s = targets[rng.Intn(len(targets))]
		} else {
			s = int32(rng.Intn(g.N()))
		}
		if int(s) == v || sp.Dist[s] == graph.Infinity {
			continue
		}
		rt, err := pb.route(v, s)
		if err != nil {
			return nil, fmt.Errorf("probe route %d->%d: %w", v, s, err)
		}
		if pb.record {
			far = max(far, sp.Dist[s])
			for _, u := range rt.Path {
				src.route = append(src.route, int32(u))
			}
		}
		st := graph.Stretch(rt.Weight, sp.Dist[s])
		if math.IsInf(st, 1) {
			continue
		}
		src.stretches = append(src.stretches, st)
	}
	if pb.record {
		slices.Sort(src.route)
		src.route = slices.Clip(slices.Compact(src.route))
		for u, d := range sp.Dist {
			if d <= far {
				src.settled = append(src.settled, int32(u))
			}
		}
	}
	return src, nil
}

// buildCost measures one backend construction: the work its PDE builds
// report, summed, and its wall clock. The wall clock is deliberate:
// BuildNS is timing metadata reported by /v1/stats and the bench layer,
// and never feeds a fingerprint or a served answer.
func buildCost[T any](f func() (T, core.PatchStats, error)) (T, UpdateStats, int64, error) {
	t0 := time.Now() //pde:allow(determinism) BuildNS is timing metadata, not fingerprinted
	built, ps, err := f()
	return built, UpdateStats{Damage: ps.Damage(), PatchStats: ps}, time.Since(t0).Nanoseconds(), err
}

// Package scheme is the unified engine behind every servable
// distance/routing scheme in the repository: one registry, one Spec, one
// Instance interface, three backends.
//
//   - oracle: the compiled CSR tables of internal/oracle over a PDE
//     result (Theorem 4.1 APSP or a partial (S, h, σ) sweep) — exact
//     same answers and fingerprints as the pre-registry serving path.
//   - rtc: Theorem 4.5 routing-table construction (skeleton + spanner +
//     tree-label routing), stretch 6k−1+o(1), k-parameterized.
//   - compact: the §4.3 Thorup–Zwick hierarchy, stretch 4k−3+o(1), with
//     the Lemma 4.12 truncation strategies.
//
// A Spec fully describes one buildable instance — topology, PDE knobs,
// scheme and its parameters — and Build is deterministic in it: the same
// Spec always yields the same Fingerprint, which the serving layer
// (internal/server) stamps on every response as the table generation id.
// Each backend is a thin adapter over the existing construction packages
// (internal/oracle, internal/rtc, internal/compact); differential tests
// pin every Instance's answers bit-identically to its legacy in-process
// path.
//
// Instances are immutable after Build and safe for any number of
// concurrent readers; AnswerInto may fan a batch across workers because
// every answer is computed independently from read-only tables.
package scheme

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
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
	// SampleProb overrides the rtc skeleton sampling probability
	// p = n^{-1/2-1/(4k)} when positive — the knob that forces the
	// long-range machinery at simulable scale.
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
		return fmt.Errorf("unknown scheme %q (want %s)", sp.Scheme, List())
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
	return core.Params{IsSource: src, H: h, Sigma: sigma, Epsilon: sp.Eps, CapMessages: true}
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
	// Route expands the scheme's full route from v to s.
	Route(v int, s int32) (*core.Route, error)
	// Accounting reports the scheme's table/label/stretch numbers.
	Accounting() Accounting
}

// backends is the one registry: each backend builds its Instance from a
// normalized, validated spec over an explicit graph.
var backends = map[string]func(sp Spec, g *graph.Graph) (Instance, error){
	"oracle":  buildOracleOn,
	"rtc":     buildRTCOn,
	"compact": buildCompactOn,
}

// Names returns the sorted backend names.
func Names() []string {
	names := make([]string, 0, len(backends))
	for name := range backends { //pde:allow(determinism) sort.Strings below imposes a total order
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// List renders the scheme names for flag docs and error messages.
func List() string { return strings.Join(Names(), " | ") }

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
	sp = sp.Normalized()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	inst, err := backends[sp.Scheme](sp, g)
	if err != nil {
		return nil, fmt.Errorf("scheme %s: %w", sp.Scheme, err)
	}
	return inst, nil
}

// --- shared backend plumbing -------------------------------------------

// Width resolves a workers setting against a batch of total items: the
// number of goroutines FanOut would use (0 = GOMAXPROCS, never more than
// one per item).
func Width(total, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, total)
}

// FanOut splits [0, total) across workers goroutines (0 = GOMAXPROCS,
// 1 = sequential). Each chunk is independent, so the result is identical
// at any width.
func FanOut(total, workers int, fn func(lo, hi int)) {
	workers = Width(total, workers)
	if workers <= 1 {
		fn(0, total)
		return
	}
	var wg sync.WaitGroup
	chunk := (total + workers - 1) / workers
	for lo := 0; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// probe parameters: sources × targets sampled per instance for the
// measured-stretch accounting. Small enough to keep Build cheap, large
// enough that a broken scheme cannot hide.
const (
	probeSources = 8
	probeTargets = 24
)

// measureStretch routes a seeded probe set and compares each delivered
// weight against the exact Dijkstra distance. candidates(v) lists the
// destinations the scheme guarantees routable from v (nil = every node).
// A route error on a guaranteed-routable pair is a build error: the
// accounting doubles as a construction sanity check.
func measureStretch(g *graph.Graph, seed int64, route func(v int, s int32) (*core.Route, error), candidates func(v int) []int32) (maxS, meanS float64, routes int, err error) {
	n := g.N()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	var sum float64
	for i := 0; i < probeSources; i++ {
		v := rng.Intn(n)
		var targets []int32
		if candidates != nil {
			targets = candidates(v)
		}
		sp := graph.Dijkstra(g, v)
		for j := 0; j < probeTargets; j++ {
			var s int32
			if targets != nil {
				if len(targets) == 0 {
					break
				}
				s = targets[rng.Intn(len(targets))]
			} else {
				s = int32(rng.Intn(n))
			}
			if int(s) == v || sp.Dist[s] == graph.Infinity {
				continue
			}
			rt, rerr := route(v, s)
			if rerr != nil {
				return 0, 0, 0, fmt.Errorf("probe route %d->%d: %w", v, s, rerr)
			}
			st := graph.Stretch(rt.Weight, sp.Dist[s])
			if math.IsInf(st, 1) {
				continue
			}
			if st > maxS {
				maxS = st
			}
			sum += st
			routes++
		}
	}
	if routes > 0 {
		meanS = sum / float64(routes)
	}
	return maxS, meanS, routes, nil
}

// buildCost measures one backend construction. The wall clock is
// deliberate: BuildNS is timing metadata reported by /v1/stats and the
// bench layer, and never feeds a fingerprint or a served answer.
func buildCost(f func() error) (int64, error) {
	t0 := time.Now() //pde:allow(determinism) BuildNS is timing metadata, not fingerprinted
	if err := f(); err != nil {
		return 0, err
	}
	return time.Since(t0).Nanoseconds(), nil
}

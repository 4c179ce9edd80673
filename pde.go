// Package pde is a from-scratch Go implementation of "Fast Partial
// Distance Estimation and Applications" (Lenzen & Patt-Shamir, PODC 2015):
// partial distance estimation (PDE) in the CONGEST model, with its
// applications to (1+ε)-approximate all-pairs shortest paths (Theorem 4.1),
// routing-table construction with relabeling (Theorem 4.5), and compact
// Thorup–Zwick routing hierarchies (§4.3), together with every substrate
// the paper relies on (source detection, Baswana–Sen spanners, tree
// labeling) and the baselines it is measured against.
//
// The package is a facade: algorithms live in internal packages and are
// re-exported here as aliases, so this file documents the intended entry
// points.
//
// The front door for anything servable is internal/scheme: one registry
// holding the three distance/routing schemes — "oracle" (compiled CSR
// tables), "rtc" (Theorem 4.5 routing) and "compact" (§4.3 hierarchy) —
// behind one Spec and one Instance interface (estimates, next hops,
// routes, plus table/label/stretch accounting). BuildScheme builds any of
// them; the pde-serve daemon serves any of them, side by side, through
// the same wire protocol.
//
// Quick start:
//
//	g := pde.RandomGraph(200, 0.05, 100, 1) // n, density, max weight, seed
//	res, err := pde.ApproxAPSP(g, 0.5, pde.Config{})
//	// res.Lists[v] holds (1.5)-approximate distances from v to all nodes;
//	// pde.NewRouter(g, res) routes along stretch-(1+ε) paths.
package pde

import (
	"io"
	"math/rand"

	"pde/internal/baseline"
	"pde/internal/compact"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/detection"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/rtc"
	"pde/internal/scheme"
	"pde/internal/spanner"
	"pde/internal/treelabel"
)

// Re-exported substrate types. See the internal package docs for details.
type (
	// Graph is a weighted undirected graph on nodes 0..n-1.
	Graph = graph.Graph
	// Builder constructs Graphs.
	Builder = graph.Builder
	// Weight is an edge weight / exact distance.
	Weight = graph.Weight
	// APSPGroundTruth is exact all-pairs shortest-path data.
	APSPGroundTruth = graph.APSP

	// Config controls a CONGEST execution (bandwidth, parallelism).
	Config = congest.Config
	// Metrics reports rounds, messages and bits of an execution.
	Metrics = congest.Metrics

	// EstimationParams configures a PDE instance (Definition 2.2).
	EstimationParams = core.Params
	// Estimation is a PDE result: estimates, tables and cost accounting.
	Estimation = core.Result
	// Estimate is one (source, distance, next hop) table entry.
	Estimate = core.Estimate
	// Router is the Corollary 3.5 stretch-(1+ε) stateless router.
	Router = core.Router

	// Oracle is a flat, immutable index compiled from an Estimation: it
	// answers the same Estimate/Lookup/NextHop queries as the result's
	// scan paths in O(log σ) per call and is safe for concurrent readers.
	Oracle = oracle.Oracle
	// OracleQuery / OracleAnswer are the batch-serving request/response
	// pair of Oracle.AnswerAll and Oracle.AnswerInto.
	OracleQuery  = oracle.Query
	OracleAnswer = oracle.Answer

	// DetectionParams configures raw unweighted/virtual source detection.
	DetectionParams = detection.Params
	// DetectionResult is a source-detection output.
	DetectionResult = detection.Result

	// RoutingParams configures Theorem 4.5 routing-table construction.
	RoutingParams = rtc.Params
	// RoutingScheme is a built Theorem 4.5 scheme.
	RoutingScheme = rtc.Scheme

	// CompactParams configures the §4.3 compact hierarchy.
	CompactParams = compact.Params
	// CompactScheme is a built §4.3 hierarchy.
	CompactScheme = compact.Scheme

	// Spanner is a Baswana–Sen (2k−1)-spanner.
	Spanner = spanner.Result
	// TreeLabeling is a Thorup–Zwick interval-labeled tree.
	TreeLabeling = treelabel.Labeling

	// SchemeSpec is the unified build recipe of the scheme registry
	// (internal/scheme): topology + PDE knobs + scheme selector.
	SchemeSpec = scheme.Spec
	// SchemeInstance is a built, immutable, concurrently-servable scheme.
	SchemeInstance = scheme.Instance
	// SchemeAccounting is the per-scheme table/label/stretch cost sheet.
	SchemeAccounting = scheme.Accounting
)

// Compact strategies (Corollary 4.14).
const (
	StrategyNone      = compact.StrategyNone
	StrategySimulate  = compact.StrategySimulate
	StrategyBroadcast = compact.StrategyBroadcast
)

// NewBuilder returns a graph builder for n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// RandomGraph generates a connected Erdős–Rényi-style graph.
func RandomGraph(n int, p float64, maxW Weight, seed int64) *Graph {
	return graph.RandomConnected(n, p, maxW, rand.New(rand.NewSource(seed)))
}

// GeometricGraph generates a connected random geometric graph.
func GeometricGraph(n int, radius float64, maxW Weight, seed int64) *Graph {
	return graph.Geometric(n, radius, maxW, rand.New(rand.NewSource(seed)))
}

// InternetGraph generates an ISP-like hierarchical topology.
func InternetGraph(n int, maxW Weight, seed int64) *Graph {
	return graph.Internet(n, maxW, rand.New(rand.NewSource(seed)))
}

// Figure1Gadget builds the paper's lower-bound construction.
func Figure1Gadget(h, sigma int) *graph.Figure1 { return graph.NewFigure1(h, sigma) }

// GroundTruth computes exact APSP centrally (for verification).
func GroundTruth(g *Graph) *APSPGroundTruth { return graph.AllPairs(g) }

// RunEstimation runs (1+ε)-approximate (S, h, σ)-estimation (Corollary 3.5).
func RunEstimation(g *Graph, p EstimationParams, cfg Config) (*Estimation, error) {
	return core.Run(g, p, cfg)
}

// ApproxAPSP runs the deterministic (1+ε)-approximate APSP of Theorem 4.1:
// S = V, h = σ = n, completing in O(ε⁻² n log n) CONGEST rounds.
func ApproxAPSP(g *Graph, eps float64, cfg Config) (*Estimation, error) {
	return core.Run(g, core.APSPParams(g.N(), eps), cfg)
}

// NewRouter wraps an estimation result for stretch-(1+ε) routing. It is a
// free wrapper: hop decisions use the result's scan path, which is the
// right trade for routing a few packets. For heavy routing or query
// traffic, compile the tables once and route from the index:
// CompileOracle(res).Router(g, res).
func NewRouter(g *Graph, res *Estimation) *Router { return core.NewRouter(g, res) }

// CompileOracle flattens an estimation result into an indexed, immutable
// distance oracle for heavy query traffic (§2.4: distance queries answered
// from local tables). To also route from the same index without compiling
// twice, use the oracle's Router method instead of NewRouter.
//
// To serve oracle traffic over the network instead of in-process, see
// internal/server and cmd/pde-serve: a long-lived daemon that holds one
// or more scenarios as independently built oracle shards behind
// /v1/estimate, /v1/nexthop and /v1/route (JSON or the binary batch
// codec), answers each request with one batch call into the tables, and
// hot-swaps a shard's tables via /v1/rebuild without dropping or tearing
// a single query — every response names the build fingerprint of the
// table generation that answered it.
func CompileOracle(res *Estimation) *Oracle { return oracle.Compile(res) }

// BuildScheme builds any registered scheme — "oracle", "rtc" or
// "compact" — from one Spec through the unified registry
// (internal/scheme). The returned instance answers estimates, next hops
// and routes from immutable tables, reports its table/label/stretch
// accounting, and is exactly what a pde-serve shard with the same spec
// serves: same answers, same fingerprint.
func BuildScheme(sp SchemeSpec) (SchemeInstance, error) { return scheme.Build(sp) }

// SchemeNames lists the registered schemes.
func SchemeNames() []string { return scheme.Names() }

// BuildRoutingScheme constructs Theorem 4.5 routing tables: stretch
// 6k−1+o(1), O(log n)-bit labels, Õ(n^{1/2+1/(4k)} + D) rounds. For the
// servable, registry-managed form of the same tables use
// BuildScheme(SchemeSpec{Scheme: "rtc", ...}).
func BuildRoutingScheme(g *Graph, p RoutingParams, cfg Config) (*RoutingScheme, error) {
	return rtc.Build(g, p, cfg)
}

// BuildCompactScheme constructs the §4.3 hierarchy: stretch 4k−3+o(1),
// tables Õ(n^{1/k}), labels O(k log n) bits.
func BuildCompactScheme(g *Graph, p CompactParams, cfg Config) (*CompactScheme, error) {
	return compact.Build(g, p, cfg)
}

// BuildSpanner constructs a Baswana–Sen (2k−1)-spanner.
func BuildSpanner(g *Graph, k int, seed int64) (*Spanner, error) {
	return spanner.BaswanaSen(g, k, rand.New(rand.NewSource(seed)))
}

// BellmanFordAPSP runs the exact pipelined Bellman–Ford baseline.
func BellmanFordAPSP(g *Graph, cfg Config) (*baseline.BFResult, error) {
	return baseline.BellmanFordAPSP(g, cfg)
}

// FloodingAPSP runs the exact topology-flooding (OSPF-style) baseline.
func FloodingAPSP(g *Graph, cfg Config) (*baseline.FloodResult, error) {
	return baseline.FloodingAPSP(g, cfg)
}

// ExactDetection runs the σ·h-round exact (S, h, σ)-detection baseline
// that Figure 1 shows is worst-case optimal.
func ExactDetection(g *Graph, p baseline.ExactParams, cfg Config) (*baseline.ExactResult, error) {
	return baseline.ExactDetect(g, p, cfg)
}

// ReadGraph parses a graph in the repository's text format (see
// Graph.WriteTo): a "pde-graph v1" header, node/edge counts, and one
// "u v w" line per edge.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// MakeNameIndependent converts a Theorem 4.5 scheme into the
// name-independent variant of §2.3 by accounting a full label-directory
// broadcast; routing is then addressed by plain node ids.
func MakeNameIndependent(sch *RoutingScheme, hopDiameter int) (*rtc.NameIndependent, error) {
	return rtc.MakeNameIndependent(sch, hopDiameter)
}

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
// Every function here has a non-test caller outside the package, which
// TestExportsHaveCallers holds. The servable schemes — "oracle",
// "rtc" and "compact", behind internal/scheme's one Spec and one Instance
// interface — are what the pde-serve daemon builds and serves; they are
// not re-exported here.
//
// Quick start:
//
//	g := pde.RandomGraph(200, 0.05, 100, 1) // n, density, max weight, seed
//	res, err := pde.ApproxAPSP(g, 0.5, pde.Config{})
//	// res.Lists[v] holds (1.5)-approximate distances from v to all nodes;
//	// pde.CompileOracle(res) answers them from indexed tables, and its
//	// Route(g, v, s) follows stretch-(1+ε) paths.
package pde

import (
	"math/rand"

	"pde/internal/baseline"
	"pde/internal/compact"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/rtc"
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

	// Config controls a CONGEST execution (bandwidth, round budget) and
	// the width of a build's rounding-instance pool.
	Config = congest.Config
	// Metrics reports rounds, messages and bits of an execution.
	Metrics = congest.Metrics

	// EstimationParams configures a PDE instance (Definition 2.2).
	EstimationParams = core.Params
	// Estimation is a PDE result: estimates, tables and cost accounting.
	Estimation = core.Result
	// Estimate is one (source, distance, next hop) table entry.
	Estimate = core.Estimate

	// Oracle is a flat, immutable index compiled from an Estimation: it
	// answers Estimate and NextHop in O(log σ) per call, routes along
	// Corollary 3.5's stretch-(1+ε) stateless paths, and is safe for
	// concurrent readers.
	Oracle = oracle.Oracle
	// OracleQuery / OracleAnswer are the batch-serving request/response
	// pair of Oracle.AnswerAll and Oracle.AnswerInto.
	OracleQuery  = oracle.Query
	OracleAnswer = oracle.Answer

	// RoutingParams configures Theorem 4.5 routing-table construction.
	RoutingParams = rtc.Params
	// RoutingScheme is a built Theorem 4.5 scheme.
	RoutingScheme = rtc.Scheme

	// CompactParams configures the §4.3 compact hierarchy.
	CompactParams = compact.Params
	// CompactScheme is a built §4.3 hierarchy.
	CompactScheme = compact.Scheme
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

// CompileOracle returns the indexed, immutable distance oracle over an
// estimation result's flat tables, which it shares (§2.4: distance
// queries answered from local tables). It is the one way to query a
// result: Estimate and NextHop answer point
// queries, AnswerAll/AnswerInto batches, and Route(g, v, s) walks the
// stretch-(1+ε) stateless route of Corollary 3.5 over the same tables.
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

// BuildRoutingScheme constructs Theorem 4.5 routing tables: stretch
// 6k−1+o(1), O(log n)-bit labels, Õ(n^{1/2+1/(4k)} + D) rounds.
func BuildRoutingScheme(g *Graph, p RoutingParams, cfg Config) (*RoutingScheme, error) {
	sch, _, err := rtc.Build(g, p, cfg, nil)
	return sch, err
}

// BuildCompactScheme constructs the §4.3 hierarchy: stretch 4k−3+o(1),
// tables Õ(n^{1/k}), labels O(k log n) bits.
func BuildCompactScheme(g *Graph, p CompactParams, cfg Config) (*CompactScheme, error) {
	sch, _, err := compact.Build(g, p, cfg, nil)
	return sch, err
}

// BellmanFordAPSP runs the exact pipelined Bellman–Ford baseline.
func BellmanFordAPSP(g *Graph, cfg Config) (*baseline.BFResult, error) {
	return baseline.BellmanFordAPSP(g, cfg)
}

// FloodingAPSP runs the exact topology-flooding (OSPF-style) baseline.
func FloodingAPSP(g *Graph, cfg Config) (*baseline.FloodResult, error) {
	return baseline.FloodingAPSP(g, cfg)
}

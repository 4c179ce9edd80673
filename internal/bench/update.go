package bench

// This file pins the incremental-update tier (scheme.Update: core.Build
// with the previous result): BENCH_update_*.json drives a seeded churn stream of
// single-edge ±1 reweights through a built oracle instance and, at every
// step, both patches the compiled tables incrementally AND rebuilds them
// from scratch on the updated graph. The two must be fingerprint-
// identical at every step — the scenario fails otherwise, so committed
// artifacts always say identical:true — and the wall-clock ratio between
// the summed rebuild and update paths is the delta speedup the /v1/update
// endpoint buys.
//
// # BENCH_update_*.json schema (schema id "pde-update/v1")
//
//	schema              string  – always "pde-update/v1"
//	name                string  – scenario name (also in the filename)
//	scheme              string  – serving backend (always "oracle": the
//	                              one Updatable scheme)
//	topology, n, m, seed, params – instance description, as in pde-scheme/v1
//	build_ns            int64   – wall clock of the initial construction
//	instances           int     – rounding instances in the hierarchy
//	probe               int     – per-step candidate count of the
//	                              localized-jitter stream (absent for the
//	                              uniform-random stream); see churnStep
//	updates             int     – churn steps applied (deterministic)
//	delta_updates       int     – steps the patch path served: every
//	                              step of a weight-only stream
//	                              (deterministic; -check guarded)
//	rebuild_updates     int     – updates − delta_updates
//	avg_damage          float64 – mean affected fraction across steps
//	identical           bool    – every step's patched tables were
//	                              fingerprint-identical to a from-scratch
//	                              build on the same graph (false fails the
//	                              scenario, so committed artifacts always
//	                              say true; -check guarded)
//	update_wall_ns      int64   – summed wall clock of the update path
//	max_update_ns       int64   – wall clock of its slowest single step
//	rebuild_wall_ns     int64   – summed wall clock of the from-scratch
//	                              builds on the same updated graphs
//	speedup             float64 – rebuild_wall_ns / update_wall_ns: the
//	                              delta-vs-rebuild ratio
//	updates_per_sec     float64 – churn steps absorbed per second by the
//	                              update path
//	fingerprint         string  – %016x fingerprint of the final
//	                              generation after the whole stream
//	                              (deterministic; -check guarded)
//	gomaxprocs          int     – scheduler width the run observed
//
// Wall-clock and speedup fields are machine-dependent; the -check guard
// compares only the deterministic fields (schema, fingerprint, n, m,
// seed, instances, updates, delta_updates, identical).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/scheme"
)

// UpdateSchemaID identifies the incremental-update report format.
const UpdateSchemaID = "pde-update/v1"

// UpdateScenario is one cell of the incremental-update benchmark matrix.
type UpdateScenario struct {
	// Name must start with "update_" so the artifact is
	// BENCH_update_*.json.
	Name  string
	Quick bool
	// Spec is the full build recipe of the serving instance. Must name an
	// Updatable scheme (oracle).
	Spec scheme.Spec
	// Updates is the churn-stream length: that many seeded single-edge ±1
	// reweights, applied one per step.
	Updates int
	// Probe is the per-step candidate count for the localized-jitter
	// stream: each step draws Probe seeded reweights and applies the one
	// affecting the fewest rounding instances. 0 or 1 keeps the stream
	// uniform-random.
	Probe int
}

// UpdateReport is the BENCH_update_*.json payload. See the schema
// comment.
type UpdateReport struct {
	Schema   string             `json:"schema"`
	Name     string             `json:"name"`
	Scheme   string             `json:"scheme"`
	Topology string             `json:"topology"`
	N        int                `json:"n"`
	M        int                `json:"m"`
	Seed     int64              `json:"seed"`
	Params   map[string]float64 `json:"params,omitempty"`
	BuildNS  int64              `json:"build_ns"`

	Instances      int     `json:"instances"`
	Probe          int     `json:"probe,omitempty"`
	Updates        int     `json:"updates"`
	DeltaUpdates   int     `json:"delta_updates"`
	RebuildUpdates int     `json:"rebuild_updates"`
	AvgDamage      float64 `json:"avg_damage"`
	Identical      bool    `json:"identical"`

	UpdateWallNS  int64   `json:"update_wall_ns"`
	MaxUpdateNS   int64   `json:"max_update_ns"`
	RebuildWallNS int64   `json:"rebuild_wall_ns"`
	Speedup       float64 `json:"speedup"`
	UpdatesPerSec float64 `json:"updates_per_sec"`

	Fingerprint string `json:"fingerprint"`
	GoMaxProcs  int    `json:"gomaxprocs"`
}

// Filename returns the artifact name for this report.
func (r *UpdateReport) Filename() string { return "BENCH_" + r.Name + ".json" }

// JSON marshals the report, indented for human diffing.
func (r *UpdateReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// churnStep draws one seeded single-edge ±1 reweight on g. Weights stay
// in [1, maxW], so the rounding-hierarchy depth never changes and every
// step is a pure weight perturbation — the workload /v1/update's delta
// path exists for.
//
// With probe > 1 and a prior core result, the step draws probe seeded
// candidates and applies the one whose rounded lengths move in the
// fewest instances (ties break toward the earliest draw, so the stream
// stays deterministic). That models localized weight jitter — the
// regime the delta path is built for — while every candidate remains a
// genuine single-edge reweight; the realized per-step damage is
// recorded in avg_damage either way.
func churnStep(g *graph.Graph, maxW graph.Weight, probe int, prev *core.Result, r *rand.Rand) graph.Change {
	edges := make([]graph.Change, 0, g.M())
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		edges = append(edges, graph.Change{Op: graph.OpReweight, U: u, V: v, W: w})
	})
	draw := func() graph.Change {
		c := edges[r.Intn(len(edges))]
		switch {
		case c.W <= 1:
			c.W++
		case c.W >= maxW:
			c.W--
		case r.Intn(2) == 0:
			c.W--
		default:
			c.W++
		}
		return c
	}
	best := draw()
	if probe <= 1 || prev == nil {
		return best
	}
	bestCost := len(edges) + 1 // larger than any affected count
	for i := 0; i < probe; i++ {
		c := best
		if i > 0 {
			c = draw()
		}
		g2, _, err := g.ApplyChanges([]graph.Change{c})
		if err != nil {
			continue
		}
		cost := 0
		for _, hit := range core.AffectedInstances(g2, prev) {
			if hit {
				cost++
			}
		}
		if cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

// RunUpdateScenario builds the instance, then walks the seeded churn
// stream: each step applies one reweight, runs scheme.Update on the live
// instance, runs a from-scratch scheme.BuildOn on the same updated graph
// as the baseline, and fails unless the two are fingerprint-identical.
func RunUpdateScenario(s UpdateScenario) (*UpdateReport, error) {
	inst, err := scheme.Build(s.Spec)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", s.Name, err)
	}
	if _, ok := inst.(scheme.Updatable); !ok {
		return nil, fmt.Errorf("bench %s: scheme %q is not updatable", s.Name, inst.Scheme())
	}
	g := inst.Graph()
	sp := inst.Spec()
	// The loop below replaces inst with each patched generation, whose
	// BuildNS is that patch's time: the cold build's must be read now.
	buildNS := inst.BuildNS()
	steps := s.Updates
	if steps <= 0 {
		steps = 8
	}
	r := rng(sp.Seed + 7707)

	var (
		updateWall, rebuildWall time.Duration
		maxUpdate               time.Duration
		deltaSteps              int
		damageSum               float64
	)
	for step := 0; step < steps; step++ {
		var prev *core.Result
		if oi, ok := inst.(*scheme.OracleInstance); ok {
			prev = oi.Res
		}
		change := churnStep(inst.Graph(), graph.Weight(sp.MaxW), s.Probe, prev, r)
		g2, sum, err := inst.Graph().ApplyChanges([]graph.Change{change})
		if err != nil {
			return nil, fmt.Errorf("bench %s: step %d: %w", s.Name, step, err)
		}
		if sum.TopologyChanged {
			return nil, fmt.Errorf("bench %s: step %d: reweight stream reported a topology change", s.Name, step)
		}

		t0 := time.Now()
		ni, st, err := scheme.Update(inst, g2)
		if err != nil {
			return nil, fmt.Errorf("bench %s: step %d: update: %w", s.Name, step, err)
		}
		d := time.Since(t0)
		updateWall += d
		maxUpdate = max(maxUpdate, d)

		t0 = time.Now()
		cold, err := scheme.BuildOn(sp, g2)
		if err != nil {
			return nil, fmt.Errorf("bench %s: step %d: cold build: %w", s.Name, step, err)
		}
		rebuildWall += time.Since(t0)

		if ni.Fingerprint() != cold.Fingerprint() {
			return nil, fmt.Errorf("bench %s: step %d: %s path fingerprint %016x != from-scratch build %016x",
				s.Name, step, st.Path, ni.Fingerprint(), cold.Fingerprint())
		}
		if st.Path == "delta" {
			deltaSteps++
		}
		damageSum += st.Damage
		inst = ni
	}

	rep := &UpdateReport{
		Schema:   UpdateSchemaID,
		Name:     s.Name,
		Scheme:   inst.Scheme(),
		Topology: sp.Topology,
		N:        g.N(),
		M:        g.M(),
		Seed:     sp.Seed,
		BuildNS:  buildNS,

		Instances:      core.NumInstances(graph.Weight(sp.MaxW), sp.Eps),
		Probe:          s.Probe,
		Updates:        steps,
		DeltaUpdates:   deltaSteps,
		RebuildUpdates: steps - deltaSteps,
		AvgDamage:      damageSum / float64(steps),
		Identical:      true,

		UpdateWallNS:  updateWall.Nanoseconds(),
		MaxUpdateNS:   maxUpdate.Nanoseconds(),
		RebuildWallNS: rebuildWall.Nanoseconds(),

		Fingerprint: fmt.Sprintf("%016x", inst.Fingerprint()),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	rep.Params = map[string]float64{"eps": sp.Eps, "maxw": float64(sp.MaxW), "h": float64(sp.H), "sigma": float64(sp.Sigma)}
	if updateWall > 0 {
		rep.Speedup = float64(rebuildWall) / float64(updateWall)
		rep.UpdatesPerSec = float64(steps) / updateWall.Seconds()
	}
	return rep, nil
}

// UpdateScenarios returns the incremental-update matrix: the headline
// community-n512 partial sweep — a deep 21-instance rounding hierarchy
// (eps=0.5, maxw=4096) driven by the localized-jitter stream (Probe
// candidates per step, lowest-damage applied), the regime the delta
// path is built for — and a shallower road-grid stream kept
// uniform-random to pin the unbiased typical-case ratio. Both are in
// the quick subset so the fingerprint-equivalence guarantee and the
// delta-vs-rebuild ratio are pinned every PR.
func UpdateScenarios() []UpdateScenario {
	community := scheme.Spec{Topology: "community", N: 512, Eps: 0.5, MaxW: 4096, Seed: 31, Scheme: "oracle", H: 48, Sigma: 16}
	roadgrid := scheme.Spec{Topology: "roadgrid", N: 256, Eps: 0.5, MaxW: 1024, Seed: 31, Scheme: "oracle", H: 32, Sigma: 12}
	return []UpdateScenario{
		{Name: "update_community-n512", Quick: true, Spec: community, Updates: 8, Probe: 16},
		{Name: "update_roadgrid-16x16", Quick: true, Spec: roadgrid, Updates: 8},
	}
}

package scheme

import (
	"errors"

	"pde/internal/core"
	"pde/internal/graph"
)

// UpdateOptions is field-less: the delta-vs-rebuild decision is made
// from the graphs alone. The type survives only because the frozen
// benchmark module calls Update(inst, g, UpdateOptions{}).
type UpdateOptions struct{}

// UpdateStats reports which path an update took and how much of the
// build it reused. The server's /v1/update reply embeds it, so its JSON
// keys are that reply's.
type UpdateStats struct {
	// Path is "delta" (the graph's structure held, so the previous
	// build's rounding instances were offered for reuse) or "rebuild"
	// (structure changed, or the backend has no incremental path:
	// everything was built from scratch on the updated graph).
	Path string `json:"path"`
	// Damage is InstancesRebuilt/InstancesTotal, the fraction of the
	// hierarchy that was re-detected (1 on the rebuild path).
	Damage float64 `json:"damage"`
	// InstancesTotal, InstancesRebuilt and InstancesReused break the
	// rounding hierarchy down (all zero for backends without one).
	// InstancesRebuilt counts full re-detections and repairs alike.
	InstancesTotal   int `json:"instances_total"`
	InstancesRebuilt int `json:"instances_rebuilt"`
	InstancesReused  int `json:"instances_reused"`
	// InstancesRepaired counts the rebuilt instances that were repaired
	// on a halo around the moved edges; RepairRounds, RepairMessages and
	// RepairNodes total the active rounds, real messages and nodes of
	// their sub-runs (core.PatchStats).
	InstancesRepaired int   `json:"instances_repaired"`
	RepairRounds      int   `json:"repair_rounds"`
	RepairMessages    int64 `json:"repair_messages"`
	RepairNodes       int   `json:"repair_nodes"`
	// SetupRounds and SetupMessages are the setup's active rounds and real
	// messages that the update itself ran (core.PatchStats): all of it on
	// the rebuild path, the w_max aggregate alone when a delta update
	// re-ran it, none when it reused the served w_max.
	SetupRounds   int   `json:"setup_rounds"`
	SetupMessages int64 `json:"setup_messages"`
	// ProbesReused counts the stretch probe's sources that the update took
	// over from the served instance instead of measuring them again, none
	// on the rebuild path.
	ProbesReused int `json:"probes_reused"`
}

// Updatable is the incremental-maintenance capability: backends that can
// patch their compiled tables against a mutated graph implement it. The
// returned instance must be fingerprint-identical to a cold
// BuildOn(inst.Spec(), g) — incremental is an optimization, never a
// different answer.
type Updatable interface {
	Instance
	UpdateGraph(g *graph.Graph) (Instance, UpdateStats, error)
}

// Update rebuilds inst's backend for the updated graph g, taking the
// backend's incremental path when it has one and an explicit-graph full
// rebuild, BuildOn(inst.Spec(), g), otherwise. Either way the result is
// what that cold build would produce.
func Update(inst Instance, g *graph.Graph, _ ...UpdateOptions) (Instance, UpdateStats, error) {
	if up, ok := inst.(Updatable); ok {
		return up.UpdateGraph(g)
	}
	ni, err := BuildOn(inst.Spec(), g)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	return ni, UpdateStats{Path: "rebuild", Damage: 1}, nil
}

// UpdateGraph implements Updatable: the oracle build of in's spec on g,
// handed the served instance. When the update was weight-only, every
// rounding instance whose subdivided lengths did not move is reused, only
// the rows it moved are computed again, and the stretch probe measures
// only the sources whose routes or distances the update can have moved;
// when the structure changed, core.Build refuses the result with
// core.ErrOtherStructure and everything is built and probed afresh.
// Either way the tables and the accounting equal a cold BuildOn of the
// spec on g.
func (in *OracleInstance) UpdateGraph(g *graph.Graph) (Instance, UpdateStats, error) {
	ni, st, err := buildOracle(in.Sp, g, in)
	st.Path = "delta"
	if errors.Is(err, core.ErrOtherStructure) {
		ni, st, err = buildOracle(in.Sp, g, nil)
		st.Path = "rebuild"
	}
	if err != nil {
		return nil, st, err
	}
	return ni, st, nil
}

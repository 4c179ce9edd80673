package scheme

import (
	"pde/internal/core"
	"pde/internal/graph"
)

// UpdateOptions is field-less: the delta-vs-rebuild decision is made
// from the graphs alone. The type survives only because the frozen
// benchmark module calls Update(inst, g, UpdateOptions{}).
type UpdateOptions struct{}

// UpdateStats reports which path an update took and how much of the
// build it reused.
type UpdateStats struct {
	// Path is "delta" (the graph's structure held, so the previous
	// build's rounding instances were offered for reuse) or "rebuild"
	// (structure changed, or the backend has no incremental path:
	// everything was built from scratch on the updated graph).
	Path string
	// InstancesTotal, InstancesRebuilt and InstancesReused break the
	// rounding hierarchy down (all zero for backends without one).
	// InstancesRebuilt counts full re-detections and repairs alike.
	InstancesTotal   int
	InstancesRebuilt int
	InstancesReused  int
	// InstancesRepaired counts the rebuilt instances that were repaired
	// on a halo around the moved edges; RepairRounds, RepairMessages and
	// RepairNodes total the active rounds, real messages and nodes of
	// their sub-runs (core.PatchStats).
	InstancesRepaired int
	RepairRounds      int
	RepairMessages    int64
	RepairNodes       int
	// Damage is InstancesRebuilt/InstancesTotal, the fraction of the
	// hierarchy that was re-detected (1 on the rebuild path).
	Damage float64
}

// Updatable is the incremental-maintenance capability: backends that can
// patch their compiled tables against a mutated graph implement it. The
// returned instance must be fingerprint-identical to a cold build on g of
// the recipe the instance was built with — incremental is an
// optimization, never a different answer.
type Updatable interface {
	Instance
	UpdateGraph(g *graph.Graph) (Instance, UpdateStats, error)
}

// Update rebuilds inst's backend for the updated graph g, taking the
// backend's incremental path when it has one and an explicit-graph full
// rebuild, BuildOn(inst.Spec(), g), otherwise. Either way the result is
// what a cold build on g of inst's own recipe would produce; for an
// oracle instance that recipe is the params of the result it serves,
// which a prebuilt instance need not share with its Spec.
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

// UpdateGraph implements Updatable: the oracle build under the params of
// the result in serves — on every path, so a prebuilt result keeps its
// recipe across reweights, inserts and deletes alike. When the update was
// weight-only the previous result is handed in, so every rounding
// instance whose subdivided lengths did not move is reused and only the
// rows it moved are computed again; when the structure changed
// everything is built afresh. Either way the tables equal a cold
// core.Run of those params on g, compiled.
func (in *OracleInstance) UpdateGraph(g *graph.Graph) (Instance, UpdateStats, error) {
	st := UpdateStats{Path: "rebuild"}
	var prev *core.Result
	if g.SameStructure(in.Gr) {
		prev, st.Path = in.Res, "delta"
	}
	ni, ps, err := buildOracle(in.Sp, g, in.Res.Params, prev)
	if err != nil {
		return nil, st, err
	}
	st.InstancesTotal, st.InstancesRebuilt, st.InstancesReused = ps.Instances, ps.Rebuilt, ps.Reused
	st.InstancesRepaired, st.RepairRounds, st.RepairMessages, st.RepairNodes = ps.Repaired, ps.RepairRounds, ps.RepairMessages, ps.RepairNodes
	st.Damage = ps.Damage()
	return ni, st, nil
}

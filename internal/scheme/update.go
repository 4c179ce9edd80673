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
	// Path is "delta" (the graph's structure held, so every PDE of the
	// construction, whatever the backend, was offered its predecessor's
	// rounding instances for reuse) or "rebuild" (the structure changed:
	// everything was built from scratch on the updated graph).
	Path string `json:"path"`
	// Damage is InstancesRebuilt/InstancesTotal, the fraction of the
	// hierarchy that was re-detected (1 on the rebuild path).
	Damage float64 `json:"damage"`
	// InstancesTotal, InstancesRebuilt and InstancesReused break down the
	// rounding hierarchies of the construction's PDEs, summed over them.
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

// Update builds inst's spec on the updated graph g with inst as the
// predecessor (Path "delta"), or cold when core.Build refuses it because
// g's structure differs (Path "rebuild"). Either way the result is what
// BuildOn(inst.Spec(), g) builds.
func Update(inst Instance, g *graph.Graph, _ ...UpdateOptions) (Instance, UpdateStats, error) {
	ni, st, err := build(inst.Spec(), g, inst)
	st.Path = "delta"
	if errors.Is(err, core.ErrOtherStructure) {
		ni, st, err = build(inst.Spec(), g, nil)
		st.Path = "rebuild"
	}
	return ni, st, err
}

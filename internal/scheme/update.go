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
	// PatchStats breaks down the rounding hierarchies of the
	// construction's PDEs and what their repairs and setups ran, summed
	// over them (core.PatchStats.Add).
	core.PatchStats
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

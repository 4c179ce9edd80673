package core

import (
	"fmt"
	"math"
	"slices"

	"pde/internal/congest"
	"pde/internal/detection"
	"pde/internal/graph"
)

// PatchStats accounts one Build: how many rounding instances the
// hierarchy has and how many of them were rebuilt versus reused from the
// previous result (none reused when there was no previous result), and
// what the repaired ones and the setup cost in the paper's currency. A
// construction made of several builds (§4's rtc and compact) sums them
// with Add, and scheme.UpdateStats embeds the sum, so these JSON keys
// are /v1/update's.
type PatchStats struct {
	// InstancesTotal is i_max+1 on the updated graph.
	InstancesTotal int `json:"instances_total"`
	// InstancesRebuilt counts instances whose detection re-ran, in full
	// or as a repair.
	InstancesRebuilt int `json:"instances_rebuilt"`
	// InstancesReused counts instances carried over from prev by pointer.
	InstancesReused int `json:"instances_reused"`
	// InstancesRepaired counts the rebuilt instances that
	// detection.Arena.Repair redid on a halo around the moved edges
	// instead of on all n nodes.
	InstancesRepaired int `json:"instances_repaired"`
	// RepairRounds and RepairMessages total the repairs' active rounds and
	// real messages, and RepairNodes the nodes their sub-runs ran on.
	RepairRounds   int   `json:"repair_rounds"`
	RepairMessages int64 `json:"repair_messages"`
	RepairNodes    int   `json:"repair_nodes"`
	// SetupRounds and SetupMessages total the setup's active rounds and
	// real messages that this build ran: all of the setup on a cold
	// build, the w_max aggregate alone on a delta build that re-ran it,
	// none on one that reused prev's w_max.
	SetupRounds   int   `json:"setup_rounds"`
	SetupMessages int64 `json:"setup_messages"`
}

// Add sums o into ps, counter by counter: the stats of a construction
// made of several builds.
func (ps *PatchStats) Add(o PatchStats) {
	ps.InstancesTotal, ps.InstancesRebuilt = ps.InstancesTotal+o.InstancesTotal, ps.InstancesRebuilt+o.InstancesRebuilt
	ps.InstancesReused, ps.InstancesRepaired = ps.InstancesReused+o.InstancesReused, ps.InstancesRepaired+o.InstancesRepaired
	ps.RepairRounds, ps.RepairMessages, ps.RepairNodes = ps.RepairRounds+o.RepairRounds, ps.RepairMessages+o.RepairMessages, ps.RepairNodes+o.RepairNodes
	ps.SetupRounds, ps.SetupMessages = ps.SetupRounds+o.SetupRounds, ps.SetupMessages+o.SetupMessages
}

// Damage is InstancesRebuilt/InstancesTotal — the affected fraction of
// the hierarchy (1 for an empty hierarchy, which cannot happen for valid
// params).
func (ps PatchStats) Damage() float64 {
	if ps.InstancesTotal == 0 {
		return 1
	}
	return float64(ps.InstancesRebuilt) / float64(ps.InstancesTotal)
}

// relayCells returns an instance's cells on g under dp: Σ ℓ(e) over the
// edges with ℓ(e) ≤ h′.
func relayCells(g *graph.Graph, dp *detection.Params) (cells int64) {
	g.Edges(func(_, _ int, w graph.Weight, _ int32) { cells += cellsOf(dp, w) })
	return cells
}

// cellsOf is one edge's share of relayCells.
func cellsOf(dp *detection.Params, w graph.Weight) int64 {
	if l := dp.Length(w); int(l) <= dp.H {
		return int64(l)
	}
	return 0
}

// moves returns the changed edges whose subdivided length under dp moved,
// nil when none did and detection under dp would reproduce the previous
// instance bit-for-bit, and what they change in its cells.
func moves(changed []graph.Reweight, dp *detection.Params) (moved []graph.Reweight, dcells int64) {
	for _, e := range changed {
		if dp.Length(e.Was) != dp.Length(e.Now) {
			if moved == nil {
				moved = make([]graph.Reweight, 0, len(changed))
			}
			moved = append(moved, e)
			dcells += cellsOf(dp, e.Now) - cellsOf(dp, e.Was)
		}
	}
	return moved, dcells
}

// sameRecipe reports whether prev's params build what p builds, up to the
// graph: everything but SkipSetup, which only adds setup accounting.
func sameRecipe(a, b Params) bool {
	return a.H == b.H && a.Sigma == b.Sigma && a.Epsilon == b.Epsilon && a.ExtraRounds == b.ExtraRounds &&
		slices.Equal(a.IsSource, b.IsSource) && slices.Equal(a.Flags, b.Flags) && slices.Equal(a.Delays, b.Delays)
}

// Equal reports whether p and q agree in every field, SkipSetup included.
func (p Params) Equal(q Params) bool { return sameRecipe(p, q) && p.SkipSetup == q.SkipSetup }

// AffectedInstances reports, for each rounding instance the updated
// graph g needs, whether prev's instance can NOT be reused: index i is
// true when instance i must be re-detected, in full or as a repair (some
// changed edge's subdivided length, clamped at h′+1, moved, or prev has
// no instance i). The slice has
// numInstances(g.MaxWeight(), prev.Params.Epsilon) entries, so a w_max
// change that deepens the hierarchy marks the new tail instances
// affected and one that shrinks it just drops the prev tail. Every entry
// is true when g and prev's graph differ in structure, which Build
// refuses.
//
// It predicts, at O(m + changed·i_max) with no detection work, exactly
// the reuse decisions Build makes; Build does not need it called first.
func AffectedInstances(g *graph.Graph, prev *Result) []bool {
	affected := make([]bool, numInstances(g.MaxWeight(), prev.Params.Epsilon))
	changed, same := g.Reweights(prev.g)
	for i := range affected {
		dp := detection.Params{H: prev.HPrime, Base: math.Pow(1+prev.Params.Epsilon, float64(i))}
		moved, _ := moves(changed, &dp)
		affected[i] = !same || i >= len(prev.Instances) || moved != nil
	}
	return affected
}

// Patch re-runs PDE on the updated graph g, reusing every rounding
// instance of prev that the update left untouched. The result is
// bit-identical to Run(g, prev.Params, cfg) — same lists, accounting and
// Fingerprint — because instance i's detection depends only on the graph
// structure and its subdivided lengths: when both are unchanged, prev's
// instance IS what a fresh run would compute. The accounting re-runs
// from the full instance set; the rows whose instance lists moved are
// computed again, and the rest are taken from prev (see Build).
//
// prev must come from a Run (or Patch) on a graph with g's structure
// (weight-only changes, see graph.ApplyChanges); Build refuses one built
// on another, whose topology change invalidates every instance's
// detection and must take the full-rebuild path instead.
func Patch(g *graph.Graph, cfg congest.Config, prev *Result) (*Result, PatchStats, error) {
	if prev == nil {
		return nil, PatchStats{}, fmt.Errorf("core: Patch needs a previous result")
	}
	return Build(g, prev.Params, cfg, prev)
}

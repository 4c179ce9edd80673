package core

import (
	"fmt"
	"math"
	"slices"

	"pde/internal/congest"
	"pde/internal/graph"
)

// PatchStats accounts one Build: how many rounding instances the
// hierarchy has and how many of them were rebuilt versus reused from the
// previous result (none reused when there was no previous result).
type PatchStats struct {
	// Instances is i_max+1 on the updated graph.
	Instances int
	// Rebuilt counts instances whose detection re-ran.
	Rebuilt int
	// Reused counts instances carried over from prev by pointer.
	Reused int
}

// Damage is Rebuilt/Instances — the affected fraction of the hierarchy
// (1 for an empty hierarchy, which cannot happen for valid params).
func (ps PatchStats) Damage() float64 {
	if ps.Instances == 0 {
		return 1
	}
	return float64(ps.Rebuilt) / float64(ps.Instances)
}

// instanceLengths returns the subdivided lengths ⌈W(e)/base⌉ (at least
// 1) of one rounding instance on g, indexed by edge id — the only
// definition of the §3 rounding.
func instanceLengths(g *graph.Graph, base float64) []int32 {
	lengths := make([]int32, g.M())
	g.Edges(func(_, _ int, w graph.Weight, id int32) {
		l := int32(math.Ceil(float64(w) / base))
		if l < 1 {
			l = 1
		}
		lengths[id] = l
	})
	return lengths
}

// reusable returns prev's instance i when detection on a graph of the
// same structure with this base and these lengths would reproduce it
// bit-for-bit — identical base and subdivided lengths — and nil when
// the instance must be re-detected (or prev is nil or has no instance
// i).
func (prev *Result) reusable(i int, base float64, lengths []int32) *Instance {
	if prev == nil || i >= len(prev.Instances) {
		return nil
	}
	if pi := prev.Instances[i]; pi.Base == base && slices.Equal(pi.Lengths, lengths) {
		return pi
	}
	return nil
}

// AffectedInstances reports, for each rounding instance the updated
// graph g needs, whether prev's instance can NOT be reused: index i is
// true when instance i must be re-detected (its subdivided lengths on g
// differ from prev's, or prev has no instance i). The slice has
// NumInstances(g.MaxWeight(), prev.Params.Epsilon) entries, so a w_max
// change that deepens the hierarchy marks the new tail instances
// affected and one that shrinks it just drops the prev tail.
//
// It predicts, at O(m·i_max) with no detection work, exactly the reuse
// decisions Build makes; Build does not need it called first.
func AffectedInstances(g *graph.Graph, prev *Result) []bool {
	affected := make([]bool, NumInstances(g.MaxWeight(), prev.Params.Epsilon))
	for i := range affected {
		base := math.Pow(1+prev.Params.Epsilon, float64(i))
		affected[i] = prev.reusable(i, base, instanceLengths(g, base)) == nil
	}
	return affected
}

// Patch re-runs PDE on the updated graph g, reusing every rounding
// instance of prev that the update left untouched. The result is
// bit-identical to Run(g, prev.Params, cfg) — same lists, accounting and
// Fingerprint — because instance i's detection depends only on the graph
// structure and its subdivided lengths: when both are unchanged, prev's
// instance IS what a fresh run would compute, and the merge and combine
// phases always re-run from the full instance set.
//
// prev must come from a Run (or Patch) with the same Params on a graph
// with the same structure (same nodes, edges and edge ids — weight-only
// changes, see graph.ApplyChanges); topology changes invalidate every
// instance's detection and must take the full-rebuild path instead.
// Patch validates what it can see cheaply (node and edge counts) and
// leaves the structural guarantee to the caller, who holds both graphs.
func Patch(g *graph.Graph, cfg congest.Config, prev *Result) (*Result, PatchStats, error) {
	if prev == nil {
		return nil, PatchStats{}, fmt.Errorf("core: Patch needs a previous result")
	}
	p := prev.Params
	if len(p.IsSource) != g.N() {
		return nil, PatchStats{}, fmt.Errorf("core: Patch across node-count change (%d -> %d): rebuild instead",
			len(p.IsSource), g.N())
	}
	if len(prev.Instances) > 0 && len(prev.Instances[0].Lengths) != g.M() {
		return nil, PatchStats{}, fmt.Errorf("core: Patch across edge-count change (%d -> %d): rebuild instead",
			len(prev.Instances[0].Lengths), g.M())
	}
	return Build(g, p, cfg, prev)
}

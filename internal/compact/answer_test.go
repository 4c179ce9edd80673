package compact

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pde/internal/graph"
)

// The legacy query path, kept verbatim as the reference the fused
// Scheme.Answer pass is pinned against: DistEstimate walked the levels
// once, FirstHop walked them again through selectLevel and then let
// NextHop look the level-0 and selected-level rows up a third time.

func legacySelectLevel(sch *Scheme, v int, dst Label) (int, int32, error) {
	w := dst.Node
	if d, _, ok := sch.levelEstimate(v, 0, w); ok && sch.inBunch(v, 0, w, d) {
		return 0, w, nil
	}
	for l := 1; l < sch.K; l++ {
		s := dst.Per[l-1].Skel
		if s < 0 {
			continue
		}
		if d, _, ok := sch.levelEstimate(v, l, s); ok && sch.inBunch(v, l, s, d) {
			return l, s, nil
		}
	}
	return 0, 0, fmt.Errorf("compact: node %d has no level for destination %d", v, dst.Node)
}

func legacyNextHop(sch *Scheme, x int, dst Label, level int, target int32) (int, error) {
	w := int(dst.Node)
	if x == w {
		return x, nil
	}
	if next, ok := sch.levelNextHop(x, 0, dst.Node); ok && next != x {
		return next, nil
	}
	if level >= 1 {
		if tree, ok := sch.Trees[level][target]; ok {
			if lx, in := tree.Labels[x]; in && lx.Contains(dst.Per[level-1].Tree) {
				return tree.NextHop(x, dst.Per[level-1].Tree)
			}
		}
		if next, ok := sch.levelNextHop(x, level, target); ok && next != x {
			return next, nil
		}
		return 0, fmt.Errorf("compact: node %d cannot advance toward level-%d pivot %d", x, level, target)
	}
	return 0, fmt.Errorf("compact: node %d lost level-0 route to %d", x, w)
}

func legacyFirstHop(sch *Scheme, v int, dst Label) (int, error) {
	if v == int(dst.Node) {
		return v, nil
	}
	level, target, err := legacySelectLevel(sch, v, dst)
	if err != nil {
		return 0, err
	}
	return legacyNextHop(sch, v, dst, level, target)
}

func legacyDistEstimate(sch *Scheme, v int, dst Label) (float64, error) {
	if v == int(dst.Node) {
		return 0, nil
	}
	best := math.Inf(1)
	if d, _, ok := sch.levelEstimate(v, 0, dst.Node); ok {
		best = d
	}
	for l := 1; l < sch.K; l++ {
		ll := dst.Per[l-1]
		if ll.Skel < 0 {
			continue
		}
		if d, _, ok := sch.levelEstimate(v, l, ll.Skel); ok {
			if val := d + ll.Dist; val < best {
				best = val
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("compact: node %d has no estimate for %d", v, dst.Node)
	}
	return best, nil
}

// TestAnswerMatchesLegacyPair pins the fused pass to the legacy
// (DistEstimate, FirstHop, selectLevel) triple on every ordered pair,
// v == w included: same hit/miss, same distance bits, same first hop,
// same level selection.
func TestAnswerMatchesLegacyPair(t *testing.T) {
	strategies := []struct {
		name  string
		strat Strategy
	}{{"none", StrategyNone}, {"simulate", StrategySimulate}, {"broadcast", StrategyBroadcast}}
	for _, topo := range []string{"community", "random", "roadgrid"} {
		for _, k := range []int{2, 3, 4} {
			for _, st := range strategies {
				for seed := int64(1); seed <= 2; seed++ {
					t.Run(fmt.Sprintf("%s/k%d/%s/seed%d", topo, k, st.name, seed), func(t *testing.T) {
						g, err := graph.Generate(topo, 36, 8, rand.New(rand.NewSource(seed)))
						if err != nil {
							t.Fatal(err)
						}
						p := Params{K: k, Epsilon: 0.5, C: 1.5, Strategy: st.strat, Seed: seed}
						if st.strat != StrategyNone {
							p.L0 = k - 1
						}
						sameAsLegacy(t, build(t, g, p))
					})
				}
			}
		}
	}
}

func sameAsLegacy(t *testing.T, sch *Scheme) {
	t.Helper()
	n := sch.G.N()
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			dst := sch.Labels[w]
			got := sch.Answer(v, dst)

			d, derr := legacyDistEstimate(sch, v, dst)
			if got.OK != (derr == nil) {
				t.Fatalf("%d->%d: OK %v, legacy DistEstimate error %v", v, w, got.OK, derr)
			}
			if got.OK && math.Float64bits(got.Dist) != math.Float64bits(d) {
				t.Fatalf("%d->%d: dist %v, legacy %v", v, w, got.Dist, d)
			}

			hop, herr := legacyFirstHop(sch, v, dst)
			if herr != nil {
				hop = -1
			}
			if int(got.Hop) != hop {
				t.Fatalf("%d->%d: hop %d, legacy %d (%v)", v, w, got.Hop, hop, herr)
			}

			level, target, lerr := legacySelectLevel(sch, v, dst)
			if (got.Level >= 0) != (lerr == nil) {
				t.Fatalf("%d->%d: level %d, legacy selectLevel error %v", v, w, got.Level, lerr)
			}
			if lerr == nil && (got.Level != level || got.Target != target) {
				t.Fatalf("%d->%d: selected (%d, %d), legacy (%d, %d)", v, w, got.Level, got.Target, level, target)
			}
		}
	}
}

// TestAnswerSkipsAbsentPivots covers destinations whose label carries no
// pivot at some level (Per[l].Skel < 0): the walk must skip that level
// exactly as the legacy pair did, not look up node -1.
func TestAnswerSkipsAbsentPivots(t *testing.T) {
	g := graph.RandomConnected(36, 0.12, 8, rand.New(rand.NewSource(4)))
	sch := build(t, g, Params{K: 3, Epsilon: 0.5, C: 1.5, Seed: 4})
	// Blank every other destination's level-1 pivot, and every third
	// one's level-2 pivot: labels a build with an exhausted level yields.
	for w := range sch.Labels {
		per := append([]LevelLabel(nil), sch.Labels[w].Per...)
		if w%2 == 0 {
			per[0].Skel = -1
		}
		if w%3 == 0 {
			per[1].Skel = -1
		}
		sch.Labels[w].Per = per
	}
	sameAsLegacy(t, sch)
}

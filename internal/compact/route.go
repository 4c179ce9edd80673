package compact

import (
	"fmt"
	"math"

	"pde/internal/core"
)

// Route is one delivered packet's trajectory.
type Route struct {
	core.Route
	// Level is the hierarchy level the origin selected (0 = direct).
	Level int
}

// inBunch reports whether (d, s) beats v's level-(l+1) pivot, i.e.
// s ∈ S'_l(v).
func (sch *Scheme) inBunch(v int, l int, s int32, d float64) bool {
	if l+1 >= sch.K {
		return true
	}
	thrD := sch.PivotDist[l+1][v]
	thrS := sch.Pivot[l+1][v]
	return d < thrD || (d == thrD && s < thrS)
}

// Answer is what one pass over the K levels yields for a query from a
// node v toward the node labeled dst: the §2.4 distance estimate, the
// origin's routing decision and the first hop that decision forwards to.
type Answer struct {
	// Dist is the best over levels of wd'(v, s'_ℓ(w)) + wd'(w, s'_ℓ(w));
	// OK reports whether any level of v's tables holds an estimate.
	Dist float64
	OK   bool
	// Level is the minimal level ℓ with s'_ℓ(w) ∈ S'_ℓ(v) (s'_0(w) = w)
	// and Target that s'_ℓ(w) — the header a fresh packet is stamped
	// with. Level is -1 when no level qualifies.
	Level  int
	Target int32
	// Hop is where v forwards such a packet: NextHop(v, dst, Level,
	// Target), v itself when v is the destination, -1 when v cannot
	// forward.
	Hop int32
}

// Answer walks v's tables once: each level's row for the destination is
// looked up a single time and serves the distance estimate, the level
// selection and — through the next hop the row records — the first hop.
// It is the stateless per-query face of the hierarchy for serving layers
// that answer next-hop queries without expanding the whole route.
func (sch *Scheme) Answer(v int, dst Label) Answer {
	w := dst.Node
	a := Answer{Dist: math.Inf(1), Level: -1, Target: -1, Hop: -1}
	var via0, viaSel int32 = -1, -1
	for l := 0; l < sch.K; l++ {
		s, tail := w, 0.0
		if l > 0 {
			per := &dst.Per[l-1]
			if per.Skel < 0 {
				continue
			}
			s, tail = per.Skel, per.Dist
		}
		d, via, ok := sch.levelEstimate(v, l, s)
		if !ok {
			continue
		}
		if l == 0 {
			via0 = via
		}
		if val := d + tail; val < a.Dist {
			a.Dist = val
		}
		if a.Level < 0 && sch.inBunch(v, l, s, d) {
			a.Level, a.Target, viaSel = l, s, via
		}
	}
	if v == int(w) {
		a.Dist, a.OK, a.Hop = 0, true, int32(v)
		return a
	}
	a.OK = !math.IsInf(a.Dist, 1)
	if a.Level >= 0 {
		a.Hop = sch.originHop(v, dst, a.Level, a.Target, via0, viaSel)
	}
	return a
}

// AnswerWithin is Answer's Dist (+Inf when v has no estimate) wherever
// that value is below ub, and otherwise some value ≥ ub: a caller that
// keeps only estimates under a running best (the set-distance minima)
// asks for nothing it would discard. A level's value d + per.Dist is at
// least its label tail per.Dist, so a level whose tail already reaches
// min(ub, best so far) is skipped without its row lookup. No level
// selection and no first hop are computed.
//
//pde:hotpath
func (sch *Scheme) AnswerWithin(v int, dst Label, ub float64) float64 {
	w := dst.Node
	if v == int(w) {
		return 0
	}
	best := math.Inf(1)
	for l := 0; l < sch.K; l++ {
		s, tail := w, 0.0
		if l > 0 {
			per := &dst.Per[l-1]
			if per.Skel < 0 {
				continue
			}
			s, tail = per.Skel, per.Dist
		}
		if tail >= min(ub, best) {
			continue
		}
		if d, ok := sch.levelDist(v, l, s); ok && d+tail < best {
			best = d + tail
		}
	}
	return best
}

// originHop is NextHop's decision at the origin v ≠ w, taken from the
// next hops the level walk already read: via0 from v's level-0 row for w,
// viaSel from its selected-level row for target (-1 where the row is
// absent or records none). Only a truncated level, whose hop is the
// skeleton combination rather than a table row, goes back to the tables.
func (sch *Scheme) originHop(v int, dst Label, level int, target, via0, viaSel int32) int32 {
	if via0 >= 0 && int(via0) != v {
		return via0
	}
	if level == 0 {
		return -1
	}
	if next, descending, err := sch.treeHop(v, dst, level, target); descending {
		if err != nil {
			return -1
		}
		return int32(next)
	}
	if sch.R[level] == nil {
		if next, ok := sch.levelNextHop(v, level, target); ok && next != v {
			return int32(next)
		}
		return -1
	}
	if v == int(target) || viaSel == int32(v) {
		return -1
	}
	return viaSel
}

// treeHop is the tree-descent step of forwarding: once x is an ancestor
// of w in T^level_target the packet follows w's interval label down.
// descending reports whether x is such an ancestor.
func (sch *Scheme) treeHop(x int, dst Label, level int, target int32) (next int, descending bool, err error) {
	tree, ok := sch.Trees[level][target]
	if !ok {
		return 0, false, nil
	}
	wl := dst.Per[level-1].Tree
	if lx, in := tree.Labels[x]; !in || !lx.Contains(wl) {
		return 0, false, nil
	}
	next, err = tree.NextHop(x, wl)
	return next, true, err
}

// NextHop is the forwarding function: x forwards a packet whose header
// carries the destination label and the origin-selected (level, target).
// Decisions use only x's tables and the header.
func (sch *Scheme) NextHop(x int, dst Label, level int, target int32) (int, error) {
	w := int(dst.Node)
	if x == w {
		return x, nil
	}
	// (a) Direct short-circuit: w in x's level-0 tables.
	if next, ok := sch.levelNextHop(x, 0, dst.Node); ok && next != x {
		return next, nil
	}
	if level >= 1 {
		// (b) Tree descent once x is an ancestor of w in T^level_target.
		if next, descending, err := sch.treeHop(x, dst, level, target); descending {
			return next, err
		}
		// (c) Continue toward the target pivot at the selected level.
		if next, ok := sch.levelNextHop(x, level, target); ok && next != x {
			return next, nil
		}
		return 0, fmt.Errorf("compact: node %d cannot advance toward level-%d pivot %d", x, level, target)
	}
	return 0, fmt.Errorf("compact: node %d lost level-0 route to %d", x, w)
}

// Route delivers a packet from v to the node labeled dst.
func (sch *Scheme) Route(v int, dst Label) (*Route, error) {
	a := sch.Answer(v, dst)
	if a.Level < 0 {
		return nil, fmt.Errorf("compact: node %d has no level for destination %d", v, dst.Node)
	}
	rt, err := core.Walk(sch.G, v, int(dst.Node), 6*sch.G.N()*sch.K, func(cur int) (int, error) {
		return sch.NextHop(cur, dst, a.Level, a.Target)
	})
	if err != nil {
		return nil, err
	}
	return &Route{Route: rt, Level: a.Level}, nil
}

// TableWords measures node v's stored table size in words: per-level
// per-instance PDE lists plus tree-routing state. For truncated schemes
// the skeleton instance's lists are included; the globally shared
// simulated outputs are reported separately by SharedWords since every
// node stores the same copy.
func (sch *Scheme) TableWords(v int) int {
	words := 0
	for _, r := range sch.R {
		if r != nil {
			words += r.TableWords(v)
		}
	}
	if sch.SkelR != nil {
		words += sch.SkelR.TableWords(v)
	}
	for l := 1; l < sch.K; l++ {
		for _, lab := range sch.Trees[l] {
			if _, ok := lab.Labels[v]; ok {
				words += lab.TableWords(v)
			}
		}
	}
	return words
}

// SharedWords is the size of the globally replicated state of a truncated
// scheme: the simulated level outputs (and, for StrategyBroadcast, the
// skeleton graph itself).
func (sch *Scheme) SharedWords() int {
	words := 0
	if sch.Gl0 != nil && sch.Strategy == StrategyBroadcast {
		words += 3 * sch.Gl0.M()
	}
	for l := range sch.simDist {
		for _, dist := range sch.simDist[l] {
			for _, d := range dist {
				if !math.IsInf(d, 1) {
					words += 2
				}
			}
		}
	}
	return words
}

// LabelBits returns |λ(v)| in bits: O(k log n).
func (sch *Scheme) LabelBits(v int) int {
	return sch.Labels[v].Bits(sch.G.N(), sch.maxLabelDist)
}

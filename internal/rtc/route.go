package rtc

import (
	"fmt"
	"math"

	"pde/internal/core"
)

// Route is one delivered packet's trajectory.
type Route struct {
	core.Route
	// Legs counts hops spent in each phase: short-range, long-range
	// (toward the skeleton / along the spanner), and tree descent.
	ShortHops, LongHops, TreeHops int
}

// maxPhiTableEntries bounds the n·|S| footprint of the precomputed
// potential tables and maxPhiBuildWork bounds their construction cost
// (|S| · total skeleton-list entries inner iterations); schemes past
// either bound fall back to the scan so Build never pays minutes of
// precompute for tables the caller may never query.
const (
	maxPhiTableEntries = 1 << 22
	maxPhiBuildWork    = 1 << 26
)

// buildPhiTables precomputes phi for every (target, node) pair where the
// table fits: one flat float64+int32 row per skeleton target, so forwarded
// hops and distance queries read the potential in O(1) instead of
// rescanning x's skeleton table against the spanner distances.
func (sch *Scheme) buildPhiTables() {
	n := sch.G.N()
	k := len(sch.Skeleton)
	if k == 0 || n*k > maxPhiTableEntries {
		return
	}
	listEntries := 0
	for x := 0; x < n; x++ {
		listEntries += len(sch.B.Lists[x])
	}
	if k*listEntries > maxPhiBuildWork {
		return
	}
	sch.phiVal = make([][]float64, k)
	sch.phiArg = make([][]int32, k)
	for j := 0; j < k; j++ {
		val := make([]float64, n)
		arg := make([]int32, n)
		for x := 0; x < n; x++ {
			val[x], arg[x], _ = sch.phiScan(x, j)
		}
		sch.phiVal[j] = val
		sch.phiArg[j] = arg
	}
}

// phi is the long-range potential of x for destination skeleton node
// target (H index): min over x's skeleton-table entries t of
// wd'_S(x,t) + spannerDist(t, target). It also returns the argmin entry.
// Served from the precomputed tables when available; phiScan is the
// reference implementation.
func (sch *Scheme) phi(x int, target int) (float64, int32, bool) {
	if sch.phiVal != nil {
		t := sch.phiArg[target][x]
		return sch.phiVal[target][x], t, t >= 0
	}
	return sch.phiScan(x, target)
}

// phiScan computes phi from x's skeleton-table entries: the Lemma 4.10
// combination against the spanner distances toward target.
func (sch *Scheme) phiScan(x int, target int) (float64, int32, bool) {
	best, t := sch.B.Potential(x, sch.SkelIndex, sch.spanTail[target])
	return best, t, t >= 0
}

// NextHop is the stateless forwarding function: given the local tables of
// x and the destination label, produce the neighbor to forward to. The
// phase of the decision is returned for accounting (1 = short, 2 = long,
// 3 = tree).
func (sch *Scheme) NextHop(x int, dst Label) (int, int, error) {
	w := int(dst.Node)
	if x == w {
		return x, 0, nil
	}
	// (a) Short range: w is in x's (V,h,σ) tables.
	if next, ok := sch.oraA.NextHop(x, dst.Node); ok && next != x {
		return next, 1, nil
	}
	// (b) Tree descent: x is an ancestor of w in T_{s'_w}.
	if tree, ok := sch.Trees[dst.Skel]; ok {
		if lx, in := tree.Labels[x]; in && lx.Contains(dst.Tree) {
			next, err := tree.NextHop(x, dst.Tree)
			if err != nil {
				return 0, 0, fmt.Errorf("rtc: tree descent at %d: %w", x, err)
			}
			return next, 3, nil
		}
	}
	// (c) Long range: one potential-decreasing step toward s'_w.
	target, ok := sch.SkelIndex[dst.Skel]
	if !ok {
		return 0, 0, fmt.Errorf("rtc: destination skeleton %d unknown", dst.Skel)
	}
	_, bestT, ok := sch.phi(x, target)
	if !ok {
		return 0, 0, fmt.Errorf("rtc: node %d has no finite potential for skeleton %d", x, dst.Skel)
	}
	if int(bestT) == x {
		// x is a skeleton node and itself the argmin: advance along the
		// spanner shortest path toward s'_w, routing to the next spanner
		// node via the skeleton tables.
		i := sch.SkelIndex[int32(x)]
		nextSkel := sch.nextSpannerHop(i, target)
		if nextSkel < 0 {
			return 0, 0, fmt.Errorf("rtc: no spanner path from %d to skeleton %d", x, dst.Skel)
		}
		next, ok := sch.oraB.NextHop(x, sch.Skeleton[nextSkel])
		if !ok {
			return 0, 0, fmt.Errorf("rtc: skeleton %d cannot route spanner edge to %d", x, sch.Skeleton[nextSkel])
		}
		return next, 2, nil
	}
	next, ok := sch.oraB.NextHop(x, bestT)
	if !ok || next == x {
		return 0, 0, fmt.Errorf("rtc: node %d cannot route toward skeleton %d", x, bestT)
	}
	return next, 2, nil
}

// nextSpannerHop returns the H index of the next skeleton node on the
// spanner shortest path from i to target (both H indices), or -1.
func (sch *Scheme) nextSpannerHop(i, target int) int {
	if i == target {
		return i
	}
	// SpanSP[target] holds parents pointing toward target.
	p := sch.SpanSP[target].Parent[i]
	if p < 0 {
		return -1
	}
	return int(p)
}

// Route delivers a packet from v to the node labeled dst, walking the
// stateless forwarding function.
func (sch *Scheme) Route(v int, dst Label) (*Route, error) {
	rt := &Route{}
	var err error
	rt.Route, err = core.Walk(sch.G, v, int(dst.Node), 4*sch.G.N()*(len(sch.B.Instances)+2), func(cur int) (int, error) {
		next, phase, err := sch.NextHop(cur, dst)
		switch phase {
		case 1:
			rt.ShortHops++
		case 2:
			rt.LongHops++
		case 3:
			rt.TreeHops++
		}
		return next, err
	})
	if err != nil {
		return nil, err
	}
	return rt, nil
}

// DistEstimate answers a distance query from v's tables for destination
// dst, without communication (§2.4): the better of the short-range
// estimate and the long-range potential plus the label's skeleton leg.
func (sch *Scheme) DistEstimate(v int, dst Label) (float64, error) {
	if v == int(dst.Node) {
		return 0, nil
	}
	best := math.Inf(1)
	if e, ok := sch.oraA.Estimate(v, dst.Node); ok {
		best = e.Dist
	}
	if target, ok := sch.SkelIndex[dst.Skel]; ok {
		if p, _, ok := sch.phi(v, target); ok {
			if val := p + dst.DistToSkel; val < best {
				best = val
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("rtc: node %d has no estimate for %d", v, dst.Node)
	}
	return best, nil
}

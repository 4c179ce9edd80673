// Package baseline implements the comparison algorithms the paper measures
// against: exact weighted (S, h, σ)-detection in σ·h rounds (the bound the
// Figure 1 gadget shows optimal), pipelined Bellman–Ford APSP, topology
// flooding with local Dijkstra (the OSPF approach of §1), and the
// random-delay randomized scheduling of Nanongkai [14] that Theorem 4.1
// derandomizes.
package baseline

import (
	"fmt"
	"math/bits"
	"sort"

	"pde/internal/congest"
	"pde/internal/graph"
)

// WEntry is one exactly-detected source: Dist is the h-hop-bounded
// weighted distance wd_h(v, Src).
type WEntry struct {
	Dist graph.Weight
	Src  int32
	Via  int32
}

// ExactParams configures exact (S, h, σ)-detection under h-hop distances,
// the problem variant the paper's §1 notes is solvable in σ·h rounds and,
// by Figure 1, no faster in general.
type ExactParams struct {
	IsSource []bool
	H        int
	Sigma    int
	// Probe, when non-nil, runs after every round with a read-only view
	// of the current lists; returning true stops the run. Experiments use
	// it to find the first round at which the output is already correct
	// (the Ω(hσ) quantity on the Figure 1 gadget).
	Probe func(round int, list func(v int) []WEntry) bool
}

// ExactResult is the output of ExactDetect.
type ExactResult struct {
	Lists   [][]WEntry
	Budget  int
	Metrics *congest.Metrics
}

// wMsg carries an exact (distance, source) pair.
type wMsg struct {
	dist graph.Weight
	src  int32
}

func (m wMsg) Bits() int { return 4 + bits.Len64(uint64(m.dist)) + bits.Len32(uint32(m.src)) }

// exactProc runs the iterated top-σ exchange: h iterations of σ subrounds
// each. At the start of an iteration each node snapshots its current list;
// during subround j it broadcasts the j-th snapshot entry. An entry thus
// advances exactly one hop per iteration, so after iteration t lists hold
// the exact top-σ of t-hop-bounded distances (the crowd-out argument
// guarantees top-σ composes hop by hop).
type exactProc struct {
	sigma int
	h     int
	wts   []graph.Weight // per port
	cur   []WEntry
	snap  []WEntry
}

func (p *exactProc) mergeOne(d graph.Weight, s int32, via int32) {
	for i := range p.cur {
		if p.cur[i].Src != s {
			continue
		}
		if p.cur[i].Dist <= d {
			return
		}
		p.cur = append(p.cur[:i], p.cur[i+1:]...)
		break
	}
	i := sort.Search(len(p.cur), func(i int) bool {
		if p.cur[i].Dist != d {
			return p.cur[i].Dist > d
		}
		return p.cur[i].Src > s
	})
	if i >= p.sigma {
		return
	}
	p.cur = append(p.cur, WEntry{})
	copy(p.cur[i+1:], p.cur[i:])
	p.cur[i] = WEntry{Dist: d, Src: s, Via: via}
	if len(p.cur) > p.sigma {
		p.cur = p.cur[:p.sigma]
	}
}

func (p *exactProc) Init(ctx *congest.Ctx) {
	p.wts = make([]graph.Weight, ctx.Degree())
	for port, e := range ctx.Neighbors() {
		p.wts[port] = e.W
	}
	ctx.WakeNext()
}

func (p *exactProc) Round(ctx *congest.Ctx) {
	for _, in := range ctx.In() {
		m := in.Msg.(wMsg)
		p.mergeOne(m.dist+p.wts[in.Port], m.src, int32(in.From))
	}
	r := ctx.Round() - 1 // 0-based subround counter
	iter := r / p.sigma
	sub := r % p.sigma
	if iter >= p.h {
		return // final merge round(s): only receive
	}
	if sub == 0 {
		p.snap = append(p.snap[:0], p.cur...)
	}
	if sub < len(p.snap) {
		e := p.snap[sub]
		ctx.Broadcast(wMsg{dist: e.Dist, src: e.Src})
	}
	ctx.WakeNext()
}

// ExactDetect solves exact (S, h, σ)-detection under h-hop distances in
// σ·h + 1 rounds. The +1 is the trailing merge of the last subround's
// messages.
func ExactDetect(g *graph.Graph, p ExactParams, cfg congest.Config) (*ExactResult, error) {
	n := g.N()
	if len(p.IsSource) != n {
		return nil, fmt.Errorf("baseline: IsSource has %d entries for %d nodes", len(p.IsSource), n)
	}
	if p.H < 0 || p.Sigma < 0 {
		return nil, fmt.Errorf("baseline: negative H=%d or Sigma=%d", p.H, p.Sigma)
	}
	if p.Sigma == 0 {
		return &ExactResult{Lists: make([][]WEntry, n), Metrics: &congest.Metrics{}}, nil
	}
	procs := make([]congest.Proc, n)
	states := make([]exactProc, n)
	for v := 0; v < n; v++ {
		states[v] = exactProc{sigma: p.Sigma, h: p.H}
		if p.IsSource[v] {
			states[v].cur = []WEntry{{Dist: 0, Src: int32(v), Via: -1}}
		}
		procs[v] = &states[v]
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = p.Sigma*p.H + 1
	}
	if p.Probe != nil && cfg.Observer == nil {
		cfg.Observer = func(round int) bool {
			return p.Probe(round, func(v int) []WEntry { return states[v].cur })
		}
	}
	met, err := congest.Run(g, procs, cfg)
	if err != nil {
		return nil, err
	}
	res := &ExactResult{
		Lists:   make([][]WEntry, n),
		Budget:  cfg.MaxRounds,
		Metrics: met,
	}
	for v := 0; v < n; v++ {
		res.Lists[v] = states[v].cur
	}
	return res, nil
}

// ExactBruteForce computes the centralized answer: top-σ of h-hop-bounded
// distances, via h rounds of Bellman–Ford relaxation.
func ExactBruteForce(g *graph.Graph, p ExactParams) [][]WEntry {
	n := g.N()
	lists := make([][]WEntry, n)
	for s := 0; s < n; s++ {
		if !p.IsSource[s] {
			continue
		}
		dist := make([]graph.Weight, n)
		for v := range dist {
			dist[v] = graph.Infinity
		}
		dist[s] = 0
		for t := 0; t < p.H; t++ {
			next := make([]graph.Weight, n)
			copy(next, dist)
			for v := 0; v < n; v++ {
				if dist[v] == graph.Infinity {
					continue
				}
				for _, e := range g.Neighbors(v) {
					if nd := dist[v] + e.W; nd < next[e.To] {
						next[e.To] = nd
					}
				}
			}
			dist = next
		}
		for v := 0; v < n; v++ {
			if dist[v] < graph.Infinity {
				lists[v] = append(lists[v], WEntry{Dist: dist[v], Src: int32(s), Via: -1})
			}
		}
	}
	for v := range lists {
		sort.Slice(lists[v], func(i, j int) bool {
			if lists[v][i].Dist != lists[v][j].Dist {
				return lists[v][i].Dist < lists[v][j].Dist
			}
			return lists[v][i].Src < lists[v][j].Src
		})
		if len(lists[v]) > p.Sigma {
			lists[v] = lists[v][:p.Sigma]
		}
	}
	return lists
}

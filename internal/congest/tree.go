package congest

import (
	"errors"
	"fmt"
	"math/bits"

	"pde/internal/graph"
)

// Tree is a rooted spanning tree of the network, as produced by the
// distributed BFS construction. It is the substrate for convergecasts
// (used to compute global values such as n, D and w_max). The pipelined
// broadcasts that make skeleton structures globally known (§4.2–4.3) are
// charged by their O(M + D) model; the tests simulate one on a Tree and
// hold it to that charge.
type Tree struct {
	Root     int
	Parent   []int32 // -1 at the root
	Depth    []int32
	Children [][]int32
	Height   int
}

// ValueMsg carries a single non-negative integer value.
type ValueMsg struct {
	Kind  uint8
	Value int64
}

// Bits reports the encoded size: an 8-bit kind tag plus the value's
// minimal binary length (values are O(log n) bits whenever the paper's
// poly(n) weight assumption holds).
func (m ValueMsg) Bits() int { return 8 + bits.Len64(uint64(m.Value)) }

type bfsProc struct {
	isRoot bool
	dist   int32
	parent int32
	done   bool
}

func (p *bfsProc) Init(ctx *Ctx) {
	p.dist = -1
	p.parent = -1
	if p.isRoot {
		p.dist = 0
		p.done = true
		ctx.Broadcast(ValueMsg{Value: 0})
	}
}

func (p *bfsProc) Round(ctx *Ctx) {
	if p.done {
		return
	}
	best := int32(-1)
	bestFrom := int32(-1)
	for _, in := range ctx.In() {
		d := int32(in.Msg.(ValueMsg).Value)
		if best < 0 || d < best || (d == best && int32(in.From) < bestFrom) {
			best = d
			bestFrom = int32(in.From)
		}
	}
	if best < 0 {
		return
	}
	p.dist = best + 1
	p.parent = bestFrom
	p.done = true
	ctx.Broadcast(ValueMsg{Value: int64(p.dist)})
}

// BuildBFSTree runs distributed BFS from root and assembles the tree.
// It completes in (hop-eccentricity of root) + 1 active rounds.
func BuildBFSTree(g *graph.Graph, root int, cfg Config) (*Tree, *Metrics, error) {
	n := g.N()
	if root < 0 || root >= n {
		return nil, nil, fmt.Errorf("congest: BFS root %d out of range [0,%d)", root, n)
	}
	procs := make([]Proc, n)
	states := make([]bfsProc, n)
	for v := 0; v < n; v++ {
		states[v].isRoot = v == root
		procs[v] = &states[v]
	}
	met, err := Run(g, procs, cfg)
	if err != nil {
		return nil, nil, err
	}
	t := &Tree{
		Root:     root,
		Parent:   make([]int32, n),
		Depth:    make([]int32, n),
		Children: make([][]int32, n),
	}
	for v := 0; v < n; v++ {
		if !states[v].done {
			return nil, nil, fmt.Errorf("congest: node %d unreachable from BFS root %d", v, root)
		}
		t.Parent[v] = states[v].parent
		t.Depth[v] = states[v].dist
		if int(t.Depth[v]) > t.Height {
			t.Height = int(t.Depth[v])
		}
	}
	for v := 0; v < n; v++ {
		if p := t.Parent[v]; p >= 0 {
			t.Children[p] = append(t.Children[p], int32(v))
		}
	}
	return t, met, nil
}

// CombineFunc merges two partial aggregate values (must be associative
// and commutative, e.g. max or sum).
type CombineFunc func(a, b int64) int64

type aggProc struct {
	tree       *Tree
	combine    CombineFunc
	acc        int64
	waiting    int // children not yet heard from
	sentUp     bool
	pushedDown bool
	result     int64
	hasResult  bool
}

func (p *aggProc) Init(ctx *Ctx) {
	p.waiting = len(p.tree.Children[ctx.Node()])
	p.advance(ctx)
}

func (p *aggProc) Round(ctx *Ctx) {
	for _, in := range ctx.In() {
		m := in.Msg.(ValueMsg)
		switch m.Kind {
		case 1: // convergecast from a child
			p.acc = p.combine(p.acc, m.Value)
			p.waiting--
		case 2: // downcast from the parent
			p.result = m.Value
			p.hasResult = true
		}
	}
	p.advance(ctx)
}

// advance fires whichever phase transitions are enabled: send the local
// aggregate up once all children reported, conclude at the root, and push
// the final result down once known.
func (p *aggProc) advance(ctx *Ctx) {
	v := ctx.Node()
	isRoot := p.tree.Parent[v] < 0
	if p.waiting == 0 && !p.sentUp && !isRoot {
		p.sentUp = true
		parent := int(p.tree.Parent[v])
		for port, e := range ctx.Neighbors() {
			if e.To == parent {
				ctx.Send(port, ValueMsg{Kind: 1, Value: p.acc})
				break
			}
		}
	}
	if p.waiting == 0 && isRoot && !p.hasResult {
		p.result = p.acc
		p.hasResult = true
	}
	if p.hasResult && !p.pushedDown {
		p.pushedDown = true
		kids := make(map[int]bool, len(p.tree.Children[v]))
		for _, c := range p.tree.Children[v] {
			kids[int(c)] = true
		}
		for port, e := range ctx.Neighbors() {
			if kids[e.To] {
				ctx.Send(port, ValueMsg{Kind: 2, Value: p.result})
			}
		}
	}
}

// Aggregate convergecasts vals up the tree with combine and downcasts the
// result so every node learns it. It takes O(tree height) rounds. The
// result is returned along with the metrics.
func Aggregate(g *graph.Graph, t *Tree, vals []int64, combine CombineFunc, cfg Config) (int64, *Metrics, error) {
	n := g.N()
	if len(vals) != n {
		return 0, nil, fmt.Errorf("congest: %d values for %d nodes", len(vals), n)
	}
	procs := make([]Proc, n)
	states := make([]aggProc, n)
	for v := 0; v < n; v++ {
		states[v] = aggProc{tree: t, combine: combine, acc: vals[v]}
		procs[v] = &states[v]
	}
	met, err := Run(g, procs, cfg)
	if err != nil {
		return 0, nil, err
	}
	for v := 0; v < n; v++ {
		if !states[v].hasResult {
			return 0, nil, fmt.Errorf("congest: node %d did not learn the aggregate", v)
		}
		if states[v].result != states[0].result {
			return 0, nil, errors.New("congest: inconsistent aggregate results")
		}
	}
	return states[0].result, met, nil
}

// Package treelabel implements the Thorup–Zwick tree labeling and routing
// scheme [20] the paper uses for its "tree routing" steps: each tree node
// gets an interval label of 2⌈log₂ n⌉ bits (preorder start and subtree
// size), and routing toward a label goes to the child whose interval
// contains it, or to the parent when none does.
//
// Labels are constructible distributedly in O(depth) rounds: a convergecast
// accumulates subtree sizes, then a downcast assigns preorder offsets. Both
// the centralized constructor (used inside the routing hierarchies, where
// many overlapping trees are labeled and the paper multiplexes their rounds)
// and a genuinely distributed congest implementation are provided; tests
// pin them to each other.
package treelabel

import (
	"fmt"
	"math/bits"
	"slices"

	"pde/internal/congest"
	"pde/internal/graph"
)

// Label is a tree-node label: the half-open preorder interval
// [Pre, Pre+Size) of its subtree.
type Label struct {
	Pre  int32
	Size int32
}

// Contains reports whether other lies in l's subtree interval.
func (l Label) Contains(other Label) bool {
	return l.Pre <= other.Pre && other.Pre < l.Pre+l.Size
}

// Bits returns the label's encoded size for a tree on n nodes.
func (l Label) Bits(n int) int { return 2 * bits.Len32(uint32(n)) }

// Labeling is a labeled rooted tree over an arbitrary subset of graph
// nodes.
type Labeling struct {
	Root   int
	Labels map[int]Label
	// Parent maps each non-root tree node to its parent.
	Parent map[int]int
	// Children lists each node's children in preorder order.
	Children map[int][]int
	Height   int
	// Rounds is the distributed construction cost: one convergecast and
	// one downcast over the tree, 2·(height+1) rounds.
	Rounds int
}

// Build labels the tree given by parent pointers (root maps to -1 or is
// absent). It validates that the structure is a tree rooted at root.
func Build(parent map[int]int, root int) (*Labeling, error) {
	children := make(map[int][]int, len(parent))
	nodes := make(map[int]bool, len(parent)+1)
	nodes[root] = true
	for v, p := range parent {
		if v == root {
			if p != -1 {
				return nil, fmt.Errorf("treelabel: root %d has parent %d", root, p)
			}
			continue
		}
		nodes[v] = true
		children[p] = append(children[p], v)
	}
	// Deterministic child order.
	for p := range children {
		sortInts(children[p])
	}
	lab := &Labeling{
		Root:     root,
		Labels:   make(map[int]Label, len(nodes)),
		Parent:   make(map[int]int, len(parent)),
		Children: children,
	}
	for v, p := range parent {
		if v != root {
			lab.Parent[v] = p
		}
	}
	// Iterative DFS assigning preorder numbers; subtree sizes on unwind.
	type frame struct {
		node  int
		child int
	}
	next := int32(0)
	stack := []frame{{node: root}}
	lab.Labels[root] = Label{Pre: next}
	next++
	depth := map[int]int{root: 0}
	visited := 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := children[f.node]
		if f.child < len(kids) {
			c := kids[f.child]
			f.child++
			if _, dup := lab.Labels[c]; dup {
				return nil, fmt.Errorf("treelabel: node %d reached twice (cycle?)", c)
			}
			lab.Labels[c] = Label{Pre: next}
			next++
			depth[c] = depth[f.node] + 1
			if depth[c] > lab.Height {
				lab.Height = depth[c]
			}
			visited++
			stack = append(stack, frame{node: c})
			continue
		}
		l := lab.Labels[f.node]
		l.Size = next - l.Pre
		lab.Labels[f.node] = l
		stack = stack[:len(stack)-1]
	}
	if visited != len(nodes) {
		return nil, fmt.Errorf("treelabel: %d of %d nodes reachable from root %d", visited, len(nodes), root)
	}
	lab.Rounds = 2 * (lab.Height + 1)
	return lab, nil
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// NextHop returns the neighbor of x on the tree path toward target.
func (l *Labeling) NextHop(x int, target Label) (int, error) {
	mine, ok := l.Labels[x]
	if !ok {
		return 0, fmt.Errorf("treelabel: node %d not in tree", x)
	}
	if mine.Pre == target.Pre {
		return x, nil
	}
	if !mine.Contains(target) {
		p, ok := l.Parent[x]
		if !ok {
			return 0, fmt.Errorf("treelabel: target %v outside tree rooted at %d", target, l.Root)
		}
		return p, nil
	}
	for _, c := range l.Children[x] {
		if l.Labels[c].Contains(target) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("treelabel: inconsistent labeling at node %d", x)
}

// Route walks the tree from x to the node labeled target, returning the
// node sequence.
func (l *Labeling) Route(x int, target Label) ([]int, error) {
	path := []int{x}
	cur := x
	for steps := 0; l.Labels[cur].Pre != target.Pre; steps++ {
		if steps > len(l.Labels)+1 {
			return nil, fmt.Errorf("treelabel: route from %d did not terminate", x)
		}
		next, err := l.NextHop(cur, target)
		if err != nil {
			return nil, err
		}
		path = append(path, next)
		cur = next
	}
	return path, nil
}

// TableWords returns the routing-table size of node x in words: its own
// label, its parent, and one interval per child. Summed over a tree this
// is O(|T|); the per-node cost is what the experiments report.
func (l *Labeling) TableWords(x int) int {
	return 3 + 2*len(l.Children[x])
}

// Forest is Lemma 4.4's family of trees: T_s is the union of the routing
// paths toward s of exactly the nodes whose pivot is s (not of every node
// that detected s), so the trees overlap and the paper multiplexes their
// labelings.
type Forest struct {
	// Trees maps each pivot to its labeled tree.
	Trees map[int32]*Labeling
	// Depths holds the tree heights in ascending pivot order.
	Depths []int
	// PerNode[v] counts the trees v participates in (Lemma 4.4 bounds it
	// by O(log n) w.h.p.).
	PerNode []int
	// Rounds is the multiplexed two-sweep labeling cost: one simulated
	// round per tree a node participates in, 2·(maxDepth+1)·maxTrees.
	Rounds int
}

// BuildForest builds and labels T_s for every pivot s that occurs in
// pivot (pivot[v] = -1: v has none), in ascending pivot order. next is the
// stateless forwarding function of the tables the trees are read off:
// the hop cur takes toward s. A node that cannot forward, or forwards to
// itself, before reaching its pivot is an error.
func BuildForest(pivot []int32, next func(cur int, s int32) (int, bool)) (*Forest, error) {
	members := make(map[int32][]int)
	var order []int32
	for v, s := range pivot {
		if s < 0 {
			continue
		}
		if _, seen := members[s]; !seen {
			order = append(order, s)
		}
		members[s] = append(members[s], v)
	}
	slices.Sort(order)
	f := &Forest{Trees: make(map[int32]*Labeling, len(order)), PerNode: make([]int, len(pivot))}
	for _, s := range order {
		parent := map[int]int{int(s): -1}
		for _, v := range members[s] {
			for cur := v; ; {
				if _, done := parent[cur]; done {
					break
				}
				hop, ok := next(cur, s)
				if !ok || hop == cur {
					return nil, fmt.Errorf("treelabel: node %d cannot forward toward its pivot %d", cur, s)
				}
				parent[cur] = hop
				cur = hop
			}
		}
		lab, err := Build(parent, int(s))
		if err != nil {
			return nil, fmt.Errorf("treelabel: tree T_%d: %w", s, err)
		}
		f.Trees[s] = lab
		f.Depths = append(f.Depths, lab.Height)
		for v := range lab.Labels {
			f.PerNode[v]++
		}
	}
	if len(order) > 0 {
		f.Rounds = 2 * (slices.Max(f.Depths) + 1) * slices.Max(f.PerNode)
	}
	return f, nil
}

// Label returns v's interval label in T_s. s must be v's pivot (every such
// v was walked into T_s by BuildForest).
func (f *Forest) Label(v int, s int32) Label {
	return f.Trees[s].Labels[v]
}

// --- Distributed construction -------------------------------------------

type labelMsg struct {
	kind  uint8 // 1 = subtree size up, 2 = preorder offset down
	value int32
}

func (m labelMsg) Bits() int { return 8 + bits.Len32(uint32(m.value)) }

type labelProc struct {
	tree    *congest.Tree
	size    int32
	waiting int
	childSz map[int]int32
	sentUp  bool
	label   Label
	has     bool
	pushed  bool
}

func (p *labelProc) Init(ctx *congest.Ctx) {
	v := ctx.Node()
	p.waiting = len(p.tree.Children[v])
	p.childSz = make(map[int]int32, p.waiting)
	p.size = 1
	p.advance(ctx)
}

func (p *labelProc) Round(ctx *congest.Ctx) {
	for _, in := range ctx.In() {
		m := in.Msg.(labelMsg)
		switch m.kind {
		case 1:
			p.childSz[in.From] = m.value
			p.size += m.value
			p.waiting--
		case 2:
			p.label = Label{Pre: m.value, Size: p.size}
			p.has = true
		}
	}
	p.advance(ctx)
}

func (p *labelProc) advance(ctx *congest.Ctx) {
	v := ctx.Node()
	isRoot := p.tree.Parent[v] < 0
	if p.waiting == 0 && !p.sentUp {
		p.sentUp = true
		if !isRoot {
			parent := int(p.tree.Parent[v])
			for port, e := range ctx.Neighbors() {
				if e.To == parent {
					ctx.Send(port, labelMsg{kind: 1, value: p.size})
					break
				}
			}
		} else {
			p.label = Label{Pre: 0, Size: p.size}
			p.has = true
		}
	}
	if p.has && !p.pushed {
		p.pushed = true
		// Assign children offsets in increasing node order, matching the
		// centralized Build.
		kids := make([]int, 0, len(p.tree.Children[v]))
		for _, c := range p.tree.Children[v] {
			kids = append(kids, int(c))
		}
		sortInts(kids)
		offset := p.label.Pre + 1
		offsets := make(map[int]int32, len(kids))
		for _, c := range kids {
			offsets[c] = offset
			offset += p.childSz[c]
		}
		for port, e := range ctx.Neighbors() {
			if off, ok := offsets[e.To]; ok {
				ctx.Send(port, labelMsg{kind: 2, value: off})
			}
		}
	}
}

// BuildDistributed labels a spanning tree of g with the two-sweep congest
// algorithm and returns the labeling plus execution metrics. It matches
// Build exactly on the same tree.
func BuildDistributed(g *graph.Graph, t *congest.Tree, cfg congest.Config) (*Labeling, *congest.Metrics, error) {
	n := g.N()
	procs := make([]congest.Proc, n)
	states := make([]labelProc, n)
	for v := 0; v < n; v++ {
		states[v] = labelProc{tree: t}
		procs[v] = &states[v]
	}
	met, err := congest.Run(g, procs, cfg)
	if err != nil {
		return nil, nil, err
	}
	lab := &Labeling{
		Root:     t.Root,
		Labels:   make(map[int]Label, n),
		Parent:   make(map[int]int, n),
		Children: make(map[int][]int, n),
		Height:   t.Height,
		Rounds:   met.ActiveRounds,
	}
	for v := 0; v < n; v++ {
		if !states[v].has {
			return nil, nil, fmt.Errorf("treelabel: node %d was not labeled", v)
		}
		lab.Labels[v] = states[v].label
		if p := t.Parent[v]; p >= 0 {
			lab.Parent[v] = int(p)
		}
		kids := make([]int, 0, len(t.Children[v]))
		for _, c := range t.Children[v] {
			kids = append(kids, int(c))
		}
		sortInts(kids)
		lab.Children[v] = kids
	}
	return lab, met, nil
}

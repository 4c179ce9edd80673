package treelabel

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// pathParents builds a path tree 0-1-2-...-(n-1) rooted at 0.
func pathParents(n int) map[int]int {
	p := map[int]int{0: -1}
	for v := 1; v < n; v++ {
		p[v] = v - 1
	}
	return p
}

func TestBuildPath(t *testing.T) {
	lab, err := build(pathParents(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		l := lab.Labels[v]
		if l.Pre != int32(v) || l.Size != int32(5-v) {
			t.Fatalf("node %d label %+v, want pre=%d size=%d", v, l, v, 5-v)
		}
	}
	if lab.Height != 4 || lab.Rounds != 10 {
		t.Fatalf("height=%d rounds=%d", lab.Height, lab.Rounds)
	}
}

func TestBuildValidatesStructure(t *testing.T) {
	// Cycle.
	if _, err := build(map[int]int{0: -1, 1: 2, 2: 1}, 0); err == nil {
		t.Fatal("expected cycle/unreachable error")
	}
	// Root with a parent.
	if _, err := build(map[int]int{0: 1, 1: -1}, 0); err == nil {
		t.Fatal("expected bad-root error")
	}
}

func TestIntervalNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomTree(60, 5, rng)
	sp := graph.Dijkstra(g, 0)
	parent := map[int]int{0: -1}
	for v := 1; v < 60; v++ {
		parent[v] = int(sp.Parent[v])
	}
	lab, err := build(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Child intervals nest strictly inside parents and are disjoint
	// across siblings.
	for v, kids := range lab.Children {
		lv := lab.Labels[v]
		var prevEnd int32 = lv.Pre + 1
		for _, c := range kids {
			lc := lab.Labels[c]
			if !lv.Contains(lc) {
				t.Fatalf("child %d interval %+v not inside parent %d %+v", c, lc, v, lv)
			}
			if lc.Pre != prevEnd {
				t.Fatalf("child %d starts at %d, want contiguous %d", c, lc.Pre, prevEnd)
			}
			prevEnd = lc.Pre + lc.Size
		}
		if prevEnd != lv.Pre+lv.Size {
			t.Fatalf("node %d subtree not fully covered by children", v)
		}
	}
}

func TestRouteBetweenAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomTree(40, 5, rng)
	sp := graph.Dijkstra(g, 3)
	parent := map[int]int{3: -1}
	for v := 0; v < 40; v++ {
		if v != 3 {
			parent[v] = int(sp.Parent[v])
		}
	}
	lab, err := build(parent, 3)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 40; u++ {
		for v := 0; v < 40; v++ {
			path, err := lab.Route(u, lab.Labels[v])
			if err != nil {
				t.Fatalf("route %d->%d: %v", u, v, err)
			}
			if path[len(path)-1] != v {
				t.Fatalf("route %d->%d ends at %d", u, v, path[len(path)-1])
			}
			// Path must be the unique tree path: length = depth(u) +
			// depth(v) - 2 depth(lca); just check edges are tree edges
			// and no node repeats.
			seen := make(map[int]bool, len(path))
			for i, x := range path {
				if seen[x] {
					t.Fatalf("route %d->%d revisits %d", u, v, x)
				}
				seen[x] = true
				if i > 0 {
					a, b := path[i-1], x
					if parent[a] != b && parent[b] != a {
						t.Fatalf("route %d->%d uses non-tree edge {%d,%d}", u, v, a, b)
					}
				}
			}
		}
	}
}

// TestDistributedMatchesCentralized runs the two-sweep congest labeling
// on BFS spanning trees and holds it to the one-tree forest BuildForest
// makes of the same tree: the same labels, in no more active rounds than
// that forest's modelled Rounds, the charge the routing hierarchies add.
func TestDistributedMatchesCentralized(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := graph.RandomConnected(60, 0.08, 7, rand.New(rand.NewSource(seed)))
		tree, _, err := congest.BuildBFSTree(g, 0, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := BuildForest(make([]int32, g.N()), func(cur int, _ int32) (int, bool) {
			return int(tree.Parent[cur]), tree.Parent[cur] >= 0
		})
		if err != nil {
			t.Fatal(err)
		}
		got, met, err := BuildDistributed(g, tree, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if want := f.Label(v, 0); got.Labels[v] != want {
				t.Fatalf("seed %d node %d: distributed %+v, centralized %+v", seed, v, got.Labels[v], want)
			}
		}
		if met.ActiveRounds > f.Rounds {
			t.Fatalf("seed %d: distributed labeling took %d rounds, the model charges %d (height %d)", seed, met.ActiveRounds, f.Rounds, tree.Height)
		}
	}
}

func TestLabelBits(t *testing.T) {
	l := Label{Pre: 5, Size: 9}
	if got := l.Bits(1000); got != 20 {
		t.Fatalf("Bits(1000) = %d, want 20", got)
	}
}

func TestTableWords(t *testing.T) {
	lab, err := build(map[int]int{0: -1, 1: 0, 2: 0, 3: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := lab.TableWords(0); got != 3+4 {
		t.Fatalf("TableWords(0) = %d, want 7", got)
	}
	if got := lab.TableWords(3); got != 3 {
		t.Fatalf("TableWords(3) = %d, want 3", got)
	}
}

func TestSingleNodeTree(t *testing.T) {
	lab, err := build(map[int]int{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if lab.Labels[7] != (Label{Pre: 0, Size: 1}) {
		t.Fatalf("singleton label %+v", lab.Labels[7])
	}
	path, err := lab.Route(7, lab.Labels[7])
	if err != nil || len(path) != 1 {
		t.Fatalf("self route: %v %v", path, err)
	}
}

// --- Distributed construction -------------------------------------------
//
// The two-sweep congest labeling the modelled rounds stand for: a
// convergecast of subtree sizes, then a downcast of preorder offsets.

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
		// centralized build.
		kids := make([]int, 0, len(p.tree.Children[v]))
		for _, c := range p.tree.Children[v] {
			kids = append(kids, int(c))
		}
		slices.Sort(kids)
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
// build exactly on the same tree.
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
		slices.Sort(kids)
		lab.Children[v] = kids
	}
	return lab, met, nil
}

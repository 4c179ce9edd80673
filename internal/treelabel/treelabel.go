// Package treelabel implements the Thorup–Zwick tree labeling and routing
// scheme [20] the paper uses for its "tree routing" steps: each tree node
// gets an interval label of 2⌈log₂ n⌉ bits (preorder start and subtree
// size), and routing toward a label goes to the child whose interval
// contains it, or to the parent when none does.
//
// Labels are constructible distributedly in O(depth) rounds: a convergecast
// accumulates subtree sizes, then a downcast assigns preorder offsets. The
// routing hierarchies label many overlapping trees and the paper
// multiplexes their rounds, so this package builds the labels centrally
// and charges the modelled rounds (Labeling.Rounds, Forest.Rounds); the
// tests run the two-sweep congest construction and hold it to them.
package treelabel

import (
	"fmt"
	"math/bits"
	"slices"
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

// build labels the tree given by parent pointers (root maps to -1 or is
// absent). It validates that the structure is a tree rooted at root.
func build(parent map[int]int, root int) (*Labeling, error) {
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
		slices.Sort(children[p])
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
		lab, err := build(parent, int(s))
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

package graph

import (
	"errors"
	"fmt"
)

// ChangeOp selects the kind of mutation a Change applies.
type ChangeOp uint8

const (
	// OpReweight replaces the weight of an existing edge.
	OpReweight ChangeOp = iota
	// OpInsert adds a new edge.
	OpInsert
	// OpDelete removes an existing edge.
	OpDelete
)

// String returns the wire name of the operation.
func (op ChangeOp) String() string {
	switch op {
	case OpReweight:
		return "reweight"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("ChangeOp(%d)", uint8(op))
	}
}

// ParseChangeOp maps a wire name to its ChangeOp.
func ParseChangeOp(s string) (ChangeOp, error) {
	switch s {
	case "reweight":
		return OpReweight, nil
	case "insert":
		return OpInsert, nil
	case "delete":
		return OpDelete, nil
	default:
		return 0, fmt.Errorf("graph: unknown change op %q (want reweight, insert or delete)", s)
	}
}

// Change is one mutation against an existing graph: a weight change on an
// edge, an edge insertion, or an edge deletion. W is the new weight for
// OpReweight and OpInsert and is ignored for OpDelete.
type Change struct {
	Op   ChangeOp
	U, V int
	W    Weight
}

// ChangeSummary reports what a batch of changes did to the graph.
type ChangeSummary struct {
	// Reweights, Inserts and Deletes count the applied changes by kind.
	Reweights, Inserts, Deletes int
	// TopologyChanged reports whether the edge set itself changed
	// (inserts or deletes). Weight-only batches keep every edge id
	// stable, which is what makes delta rebuilds possible upstream.
	TopologyChanged bool
}

// ApplyChanges returns a new immutable graph with the changes applied.
// The receiver is never modified. For weight-only batches the returned
// graph assigns every surviving edge the same id it had in g, so
// per-edge tables indexed by id stay aligned across the two graphs.
// Topology-changing batches renumber ids densely (deletions compact the
// id space; insertions append).
//
// Each change is validated against g plus the earlier changes in the
// batch: reweighting or deleting a missing edge, inserting an existing
// one, touching the same pair twice, out-of-range endpoints, self-loops
// and non-positive weights are all errors, and no partial application
// happens — on error the caller keeps g.
//
// A weight-only batch copies g's adjacency and patches each changed edge
// at both its ports, so it costs one copy of the lists; only a batch
// that inserts or deletes rebuilds the graph through a Builder.
func (g *Graph) ApplyChanges(changes []Change) (*Graph, ChangeSummary, error) {
	var sum ChangeSummary
	if len(changes) == 0 {
		return nil, sum, errors.New("graph: empty change batch")
	}
	n := g.N()
	// at[i] is change i's edge as seen from c.V, for a reweight or a
	// delete: its ID, and Back its port in c.U's list.
	at := make([]Edge, len(changes))
	touched := make(map[[2]int]struct{}, len(changes))
	for i, c := range changes {
		if c.U < 0 || c.U >= n || c.V < 0 || c.V >= n {
			return nil, sum, fmt.Errorf("graph: change %d: edge {%d,%d} out of range [0,%d)", i, c.U, c.V, n)
		}
		if c.U == c.V {
			return nil, sum, fmt.Errorf("graph: change %d: self-loop at node %d", i, c.U)
		}
		key := [2]int{min(c.U, c.V), max(c.U, c.V)}
		if _, dup := touched[key]; dup {
			return nil, sum, fmt.Errorf("graph: change %d: edge {%d,%d} changed twice in one batch", i, c.U, c.V)
		}
		touched[key] = struct{}{}
		e, exists := g.EdgeBetween(c.V, c.U)
		at[i] = e
		switch c.Op {
		case OpReweight:
			if !exists {
				return nil, sum, fmt.Errorf("graph: change %d: reweight of missing edge {%d,%d}", i, c.U, c.V)
			}
			if c.W < 1 {
				return nil, sum, fmt.Errorf("graph: change %d: non-positive weight %d for {%d,%d}", i, c.W, c.U, c.V)
			}
			sum.Reweights++
		case OpInsert:
			if exists {
				return nil, sum, fmt.Errorf("graph: change %d: insert of existing edge {%d,%d}", i, c.U, c.V)
			}
			if c.W < 1 {
				return nil, sum, fmt.Errorf("graph: change %d: non-positive weight %d for {%d,%d}", i, c.W, c.U, c.V)
			}
			sum.Inserts++
		case OpDelete:
			if !exists {
				return nil, sum, fmt.Errorf("graph: change %d: delete of missing edge {%d,%d}", i, c.U, c.V)
			}
			sum.Deletes++
		default:
			return nil, sum, fmt.Errorf("graph: change %d: unknown op %d", i, c.Op)
		}
	}
	sum.TopologyChanged = sum.Inserts+sum.Deletes > 0
	if !sum.TopologyChanged {
		return g.reweighted(changes, at), sum, nil
	}
	// Rebuild in id order, so that the surviving edges keep their
	// relative order, then append the inserts.
	type edge struct {
		u, v    int
		w       Weight
		deleted bool
	}
	edges := make([]edge, g.M())
	g.Edges(func(u, v int, w Weight, id int32) { edges[id] = edge{u: u, v: v, w: w} })
	b := NewBuilder(n)
	for i, c := range changes {
		switch c.Op {
		case OpReweight:
			edges[at[i].ID].w = c.W
		case OpDelete:
			edges[at[i].ID].deleted = true
		}
	}
	for _, e := range edges {
		if !e.deleted {
			b.AddEdge(e.u, e.v, e.w)
		}
	}
	for _, c := range changes {
		if c.Op == OpInsert {
			b.AddEdge(min(c.U, c.V), max(c.U, c.V), c.W)
		}
	}
	ng, err := b.Build()
	if err != nil {
		return nil, sum, fmt.Errorf("graph: rebuilding after changes: %w", err)
	}
	return ng, sum, nil
}

// reweighted returns a copy of g with each change's new weight patched
// in at both ports of its edge, at[i] being change i's edge as
// ApplyChanges found it from c.V. Every id and port stays g's.
func (g *Graph) reweighted(changes []Change, at []Edge) *Graph {
	adj := make([][]Edge, len(g.adj))
	slab := make([]Edge, 0, 2*g.m)
	for v, l := range g.adj {
		from := len(slab)
		slab = append(slab, l...)
		adj[v] = slab[from:len(slab):len(slab)]
	}
	for i, c := range changes {
		fromU := &adj[c.U][at[i].Back]
		fromU.W = c.W
		adj[c.V][fromU.Back].W = c.W
	}
	var maxW Weight
	for _, e := range slab {
		maxW = max(maxW, e.W)
	}
	return &Graph{adj: adj, m: g.m, max: maxW}
}

// Reweight is an edge whose weight differs between two graphs of one
// structure: U < V, Was its weight on the older graph, Now on the newer.
type Reweight struct {
	U, V     int32
	Was, Now Weight
}

// Reweights zips the adjacency of old, an earlier graph, against g's. The
// two have the same structure when they have the same n and the same
// (neighbor, edge id) adjacency at every node, weights aside; per-edge
// tables indexed by id are interchangeable between them exactly then.
// When they do, Reweights returns every edge whose weight differs, once,
// in ascending (U, V) order, and true; otherwise nil and false.
func (g *Graph) Reweights(old *Graph) ([]Reweight, bool) {
	if g.N() != old.N() {
		return nil, false
	}
	var out []Reweight
	for v, now := range g.adj {
		was := old.adj[v]
		if len(was) != len(now) {
			return nil, false
		}
		for i, e := range now {
			if was[i].To != e.To || was[i].ID != e.ID {
				return nil, false
			}
			if was[i].W != e.W && v < e.To {
				out = append(out, Reweight{U: int32(v), V: int32(e.To), Was: was[i].W, Now: e.W})
			}
		}
	}
	return out, true
}

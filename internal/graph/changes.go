package graph

import "math/rand"

// ChangeKind is a kind of batch RandomChanges draws.
type ChangeKind uint8

// The kinds of batch RandomChanges draws. ApplyChanges accepts every
// kind's batch but ChangeTwice's.
const (
	// ChangeNudge moves k distinct edges' weights by ±1, within [1, w_max]
	// unless w_max is 1.
	ChangeNudge ChangeKind = iota
	// ChangeReweight sets k distinct edges to weights uniform in [1, w_max].
	ChangeReweight
	// ChangeRaiseMax sets one edge above w_max, at most doubling it.
	ChangeRaiseMax
	// ChangeLowerMax sets every edge at w_max to a weight below it.
	ChangeLowerMax
	// ChangeNoOp reweights k distinct edges to their own weights.
	ChangeNoOp
	// ChangeInsert adds up to k new edges of weights in [1, w_max].
	ChangeInsert
	// ChangeDelete removes k distinct edges, which may disconnect g.
	ChangeDelete
	// ChangeRewire swaps the ends of two disjoint edges, {a,b},{c,d} →
	// {a,d},{c,b}, each keeping its weight: every degree and n, m and the
	// weights stay, only the structure moves.
	ChangeRewire
	// ChangeTwice reweights one edge twice, the second time named from its
	// other end.
	ChangeTwice
	// ChangeKinds counts the kinds.
	ChangeKinds
)

var changeKindNames = [ChangeKinds]string{"nudge", "reweight", "raise-max", "lower-max", "no-op", "insert", "delete", "rewire", "twice"}

func (k ChangeKind) String() string { return changeKindNames[k] }

// RandomChanges draws one batch of the given kind against g, which must
// have an edge, from rng; k is the batch size of the kinds that have one.
// A kind g cannot yield — an insert into a complete graph, a rewire
// without two edges to swap, lowering w_max 1 — yields ChangeNoOp's
// batch instead.
func RandomChanges(g *Graph, kind ChangeKind, k int, rng *rand.Rand) []Change {
	var edges []Change
	g.Edges(func(u, v int, w Weight, _ int32) { edges = append(edges, Change{Op: OpReweight, U: u, V: v, W: w}) })
	pick := rng.Perm(len(edges))[:max(1, min(k, len(edges)))]
	maxW := g.MaxWeight()
	adjacent := func(u, v int) bool { _, ok := g.EdgeBetween(u, v); return ok }
	var batch []Change
	switch kind {
	case ChangeNudge, ChangeReweight, ChangeDelete:
		for _, i := range pick {
			c := edges[i]
			switch {
			case kind == ChangeDelete:
				c.Op = OpDelete
			case kind == ChangeReweight:
				c.W = randWeight(rng, maxW)
			case c.W > 1 && (c.W >= maxW || rng.Intn(2) == 0):
				c.W--
			default:
				c.W++
			}
			batch = append(batch, c)
		}
	case ChangeRaiseMax:
		c := edges[pick[0]]
		c.W = maxW + randWeight(rng, maxW)
		batch = []Change{c}
	case ChangeLowerMax:
		for _, c := range edges {
			if c.W == maxW && maxW > 1 {
				c.W = randWeight(rng, maxW-1)
				batch = append(batch, c)
			}
		}
	case ChangeInsert:
		for tries := 0; len(batch) < k && tries < 64*k; tries++ {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			dup := false
			for _, c := range batch {
				dup = dup || (c.U == u && c.V == v) || (c.U == v && c.V == u)
			}
			if u != v && !dup && !adjacent(u, v) {
				batch = append(batch, Change{Op: OpInsert, U: u, V: v, W: randWeight(rng, maxW)})
			}
		}
	case ChangeRewire:
		for tries := 0; batch == nil && tries < 64; tries++ {
			ab, cd := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
			a, b, c, d := ab.U, ab.V, cd.U, cd.V
			if rng.Intn(2) == 0 {
				c, d = d, c
			}
			if a != c && a != d && b != c && b != d && !adjacent(a, d) && !adjacent(c, b) {
				batch = []Change{{Op: OpDelete, U: a, V: b}, {Op: OpDelete, U: c, V: d}, {Op: OpInsert, U: a, V: d, W: ab.W}, {Op: OpInsert, U: c, V: b, W: cd.W}}
			}
		}
	case ChangeTwice:
		c := edges[pick[0]]
		batch = []Change{c, {Op: OpReweight, U: c.V, V: c.U, W: randWeight(rng, maxW)}}
	}
	if len(batch) == 0 { // ChangeNoOp, or a kind g cannot yield
		for _, i := range pick {
			batch = append(batch, edges[i])
		}
	}
	return batch
}

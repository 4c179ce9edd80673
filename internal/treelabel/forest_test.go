package treelabel

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pde/internal/graph"
)

// forestCase is one seeded instance for BuildForest: a connected graph, a
// random set of pivots with a random assignment of nodes to them (some
// nodes get none), and as forwarding function the shortest-path parent
// toward the pivot — stateless and loop-free, like the PDE tables the
// hierarchies hand in.
type forestCase struct {
	n     int
	pivot []int32
	sp    map[int32]*graph.SSSP
}

func newForestCase(seed int64) forestCase {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(50)
	g := graph.RandomConnected(n, 3.0/float64(n), 9, rng)
	fc := forestCase{n: n, pivot: make([]int32, n), sp: make(map[int32]*graph.SSSP)}
	var pivots []int32
	for len(pivots) < 1+rng.Intn(6) {
		s := int32(rng.Intn(n))
		if fc.sp[s] == nil {
			fc.sp[s] = graph.Dijkstra(g, int(s))
			pivots = append(pivots, s)
		}
	}
	for v := range fc.pivot {
		fc.pivot[v] = -1
		if rng.Intn(5) > 0 {
			fc.pivot[v] = pivots[rng.Intn(len(pivots))]
		}
	}
	return fc
}

func (fc forestCase) next(cur int, s int32) (int, bool) {
	if cur == int(s) {
		return cur, true
	}
	return int(fc.sp[s].Parent[cur]), true
}

// TestBuildForestProperties holds the forest to Lemma 4.4's definition on
// seeded random pivot assignments: T_s is rooted at s and is exactly the
// union of the walked paths of the nodes whose pivot is s, every node's
// label lies in its root's interval, and the statistics are recounts.
func TestBuildForestProperties(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		fc := newForestCase(seed)
		f, err := BuildForest(fc.pivot, fc.next)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// The reference: walk every assigned node to its pivot.
		want := map[int32]map[int]int{} // pivot -> node -> parent
		for v, s := range fc.pivot {
			if s < 0 {
				continue
			}
			if want[s] == nil {
				want[s] = map[int]int{}
			}
			for cur := v; cur != int(s); {
				hop, _ := fc.next(cur, s)
				want[s][cur] = hop
				cur = hop
			}
		}
		if len(f.Trees) != len(want) {
			t.Fatalf("seed %d: %d trees for %d pivots in use", seed, len(f.Trees), len(want))
		}
		perNode := make([]int, fc.n)
		var order []int32
		for s, tree := range f.Trees {
			order = append(order, s)
			if tree.Root != int(s) {
				t.Fatalf("seed %d: T_%d is rooted at %d", seed, s, tree.Root)
			}
			if len(tree.Labels) != len(want[s])+1 {
				t.Fatalf("seed %d: T_%d has %d nodes, the walked paths cover %d", seed, s, len(tree.Labels), len(want[s])+1)
			}
			for v, p := range want[s] {
				if got, ok := tree.Parent[v]; !ok || got != p {
					t.Fatalf("seed %d: T_%d parent of %d = %d (%v), walked %d", seed, s, v, got, ok, p)
				}
			}
			for v := range tree.Labels {
				perNode[v]++
			}
		}
		for v, s := range fc.pivot {
			if s >= 0 && !f.Trees[s].Labels[int(s)].Contains(f.Label(v, s)) {
				t.Fatalf("seed %d: label %+v of %d is outside its root %d's interval %+v", seed, f.Label(v, s), v, s, f.Trees[s].Labels[int(s)])
			}
		}
		if !slices.Equal(f.PerNode, perNode) {
			t.Fatalf("seed %d: PerNode %v, recount %v", seed, f.PerNode, perNode)
		}
		slices.Sort(order)
		maxDepth := 0
		for i, s := range order {
			if f.Depths[i] != f.Trees[s].Height {
				t.Fatalf("seed %d: Depths[%d] = %d, T_%d has height %d", seed, i, f.Depths[i], s, f.Trees[s].Height)
			}
			maxDepth = max(maxDepth, f.Depths[i])
		}
		if wantRounds := 2 * (maxDepth + 1) * slices.Max(perNode); len(f.Depths) != len(order) || f.Rounds != wantRounds {
			t.Fatalf("seed %d: %d depths, Rounds = %d; want %d depths, 2·(%d+1)·%d = %d",
				seed, len(f.Depths), f.Rounds, len(order), maxDepth, slices.Max(perNode), wantRounds)
		}
	}
}

// TestBuildForestStuckNode: a node that cannot forward, or forwards to
// itself, before reaching its pivot is an error naming that node.
func TestBuildForestStuckNode(t *testing.T) {
	fc := newForestCase(7)
	stuck := -1
	for v, s := range fc.pivot {
		if s >= 0 && v != int(s) {
			stuck = v
			break
		}
	}
	for name, answer := range map[string]func(cur int) (int, bool){
		"no next hop":   func(int) (int, bool) { return -1, false },
		"forwards home": func(cur int) (int, bool) { return cur, true },
	} {
		_, err := BuildForest(fc.pivot, func(cur int, s int32) (int, bool) {
			if cur == stuck {
				return answer(cur)
			}
			return fc.next(cur, s)
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("node %d ", stuck)) {
			t.Errorf("%s: err = %v, want one naming node %d", name, err, stuck)
		}
	}
	// No pivots at all is an empty forest, not an error.
	f, err := BuildForest([]int32{-1, -1, -1}, fc.next)
	if err != nil || len(f.Trees) != 0 || f.Rounds != 0 || len(f.PerNode) != 3 {
		t.Fatalf("pivotless forest = %+v, %v", f, err)
	}
}

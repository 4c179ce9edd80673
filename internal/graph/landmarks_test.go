package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestLandmarksAreExactAndSpread checks the key vectors against Dijkstra:
// the first landmark is node 0, each auxiliary one is the node farthest
// from those before it, and every key is that landmark's exact distance.
func TestLandmarksAreExactAndSpread(t *testing.T) {
	g := RoadGrid(8, 8, 0.3, 16, rand.New(rand.NewSource(3)))
	lm := g.Landmarks()
	if !slices.Equal(lm.Key1, Dijkstra(g, 0).Dist) {
		t.Fatal("Key1 is not the distance vector of node 0")
	}
	if len(lm.Aux) != MaxAuxLandmarks {
		t.Fatalf("%d auxiliary landmarks on a connected 64-node grid, want %d", len(lm.Aux), MaxAuxLandmarks)
	}
	minDist := slices.Clone(lm.Key1)
	for j, key := range lm.Aux {
		c := slices.Index(key, 0)
		if c < 0 || !slices.Equal(key, Dijkstra(g, c).Dist) {
			t.Fatalf("Aux[%d] is not the distance vector of a node", j)
		}
		if minDist[c] != slices.Max(minDist) {
			t.Errorf("Aux[%d]'s landmark %d is not farthest from the earlier ones", j, c)
		}
		for v, d := range key {
			minDist[v] = min(minDist[v], d)
		}
	}
	if g.Landmarks() != lm {
		t.Error("second call recomputed the landmarks")
	}
}

// TestLandmarksFollowTheGraph pins the lifetime rule: a graph derived by
// ApplyChanges measures its own keys, so shortening an edge shortens them.
func TestLandmarksFollowTheGraph(t *testing.T) {
	g := NewBuilder(3).AddEdge(0, 1, 10).AddEdge(1, 2, 10).MustBuild()
	old := g.Landmarks()
	ng, _, err := g.ApplyChanges([]Change{{Op: OpReweight, U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ng.Landmarks().Key1; !slices.Equal(got, []Weight{0, 1, 11}) {
		t.Errorf("updated graph's Key1 = %v, want [0 1 11]", got)
	}
	if !slices.Equal(old.Key1, []Weight{0, 10, 20}) || g.Landmarks() != old {
		t.Errorf("the old graph's keys changed: %v", old.Key1)
	}
}

func TestLandmarksDegenerateGraphs(t *testing.T) {
	if lm := new(Graph).Landmarks(); len(lm.Key1) != 0 || len(lm.Aux) != 0 {
		t.Errorf("empty graph: %+v", lm)
	}
	// An edgeless graph: everything but node 0 is unreachable, and no
	// auxiliary landmark adds information.
	lm := NewBuilder(3).MustBuild().Landmarks()
	if !slices.Equal(lm.Key1, []Weight{0, Infinity, Infinity}) || len(lm.Aux) != 0 {
		t.Errorf("edgeless graph: %+v", lm)
	}
}

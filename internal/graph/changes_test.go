package graph

import (
	"math/rand"
	"testing"
)

// TestRandomChanges: every kind's batch is one ApplyChanges accepts, on
// every family, but ChangeTwice's, which it refuses; a rewire moves the
// structure and keeps every node's degree; a no-op batch, and the batch of
// a kind the graph cannot yield (a clique with all weights 1 has no edge
// to insert or rewire and no w_max to lower), leaves Reweights empty; and
// each other kind moves the weights it names.
func TestRandomChanges(t *testing.T) {
	graphs := map[string]*Graph{"clique": Clique(6, 1, rand.New(rand.NewSource(1)))}
	for name, build := range families(40, 3) {
		graphs[name] = build()
	}
	for name, g := range graphs {
		rng := rand.New(rand.NewSource(9))
		for kind := range ChangeKinds {
			batch := RandomChanges(g, kind, 3, rng)
			ng, sum, err := g.ApplyChanges(batch)
			if kind == ChangeTwice {
				if err == nil {
					t.Errorf("%s: ApplyChanges took %v's batch %v", name, kind, batch)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v's batch %v: %v", name, kind, batch, err)
			}
			changed, same := ng.Reweights(g)
			noop := kind == ChangeNoOp || (name == "clique" && (kind == ChangeInsert || kind == ChangeRewire || kind == ChangeLowerMax))
			switch {
			case noop:
				if !same || len(changed) != 0 || sum.Reweights != len(batch) {
					t.Errorf("%s: %v's batch %v moved %v", name, kind, batch, changed)
				}
			case kind == ChangeRewire:
				if same || sum.Inserts != 2 || sum.Deletes != 2 {
					t.Errorf("%s: rewire %v: summary %+v", name, batch, sum)
				}
				for v := range g.N() {
					if ng.Degree(v) != g.Degree(v) {
						t.Errorf("%s: rewire %v moved node %d's degree %d to %d", name, batch, v, g.Degree(v), ng.Degree(v))
					}
				}
			case kind == ChangeInsert || kind == ChangeDelete:
				if ng.M() != g.M()+sum.Inserts-sum.Deletes || len(batch) != 3 {
					t.Errorf("%s: %v's batch %v: %d edges, then %d", name, kind, batch, g.M(), ng.M())
				}
			case kind == ChangeNudge:
				for _, e := range changed {
					if e.Now-e.Was != 1 && e.Was-e.Now != 1 || len(changed) != 3 {
						t.Errorf("%s: nudges %v moved %v", name, batch, changed)
					}
				}
			case kind == ChangeRaiseMax && ng.MaxWeight() <= g.MaxWeight(), kind == ChangeLowerMax && ng.MaxWeight() >= g.MaxWeight():
				t.Errorf("%s: %v's batch %v: w_max %d, then %d", name, kind, batch, g.MaxWeight(), ng.MaxWeight())
			}
		}
	}
}

package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pde/internal/congest"
	"pde/internal/graph"
)

// TestPropertyParallelPDEMatchesSequential is the algorithm-level
// determinism property behind Theorem 4.1's derandomization claim: a
// rounding-instance pool of any width must produce the exact same PDE
// output lists, instances and cost accounting as width 1 on the same
// input.
func TestPropertyParallelPDEMatchesSequential(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 48 + rng.Intn(25)
		g := graph.RandomConnected(n, 0.06+rng.Float64()*0.1, graph.Weight(1+rng.Intn(16)), rng)
		src := make([]bool, n)
		for v := range src {
			src[v] = rng.Float64() < 0.5
		}
		src[0] = true
		p := Params{
			IsSource: src,
			H:        4 + rng.Intn(n/2),
			Sigma:    1 + rng.Intn(n/2),
			Epsilon:  []float64{0.5, 1}[rng.Intn(2)],
		}
		seq, err1 := Run(g, p, congest.Config{})
		par, err2 := Run(g, p, congest.Config{Parallel: true, Workers: 1 + rng.Intn(7)})
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: errs %v %v", seed, err1, err2)
			return false
		}
		if !reflect.DeepEqual(seq.Lists, par.Lists) {
			t.Logf("seed %d: output lists diverge", seed)
			return false
		}
		if seq.BudgetRounds != par.BudgetRounds || seq.ActiveRounds != par.ActiveRounds ||
			seq.Messages != par.Messages || seq.MessageBits != par.MessageBits ||
			seq.SetupRounds != par.SetupRounds {
			t.Logf("seed %d: accounting diverges: seq{%d %d %d %d} par{%d %d %d %d}",
				seed, seq.BudgetRounds, seq.ActiveRounds, seq.Messages, seq.MessageBits,
				par.BudgetRounds, par.ActiveRounds, par.Messages, par.MessageBits)
			return false
		}
		if !reflect.DeepEqual(seq.BroadcastsByNode, par.BroadcastsByNode) {
			t.Logf("seed %d: per-node broadcasts diverge", seed)
			return false
		}
		for i := range seq.Instances {
			if !reflect.DeepEqual(detLists(seq.Instances[i].Det), detLists(par.Instances[i].Det)) {
				t.Logf("seed %d: instance %d detection lists diverge", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

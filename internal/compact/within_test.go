package compact

import (
	"math"
	"math/rand"
	"testing"

	"pde/internal/graph"
)

// withinSchemes are a full k = 3 hierarchy and one truncated at l0 = 1
// under each strategy, whose upper levels answer from the skeleton
// simulation rather than a level's own tables.
var withinParams = []Params{
	{K: 3, Epsilon: 0.5, C: 1, Seed: 29},
	{K: 3, Epsilon: 0.5, C: 1.5, L0: 1, Seed: 31},
	{K: 3, Epsilon: 0.5, C: 1.5, L0: 1, Strategy: StrategyBroadcast, Seed: 31},
}

func withinSchemes(t *testing.T) (*graph.Graph, []*Scheme) {
	t.Helper()
	g := graph.RandomConnected(40, 0.12, 12, rand.New(rand.NewSource(23)))
	var out []*Scheme
	for _, p := range withinParams {
		out = append(out, build(t, g, p))
	}
	return g, out
}

// TestAnswerWithinIsAnswersDist: AnswerWithin is Answer's distance
// wherever that lies below ub and at least ub elsewhere, for every pair,
// at an unbounded ub, a ub just above the answer and one at it.
func TestAnswerWithinIsAnswersDist(t *testing.T) {
	g, schemes := withinSchemes(t)
	for i, sch := range schemes {
		for v := 0; v < g.N(); v++ {
			for w := 0; w < g.N(); w++ {
				want := sch.Answer(v, sch.Labels[w]).Dist
				if got := sch.AnswerWithin(v, sch.Labels[w], math.Inf(1)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("scheme %d, %d->%d: AnswerWithin(+Inf) = %v, Answer %v", i, v, w, got, want)
				}
				if got := sch.AnswerWithin(v, sch.Labels[w], want+1); got != want {
					t.Fatalf("scheme %d, %d->%d: AnswerWithin(%v) = %v, Answer %v", i, v, w, want+1, got, want)
				}
				if got := sch.AnswerWithin(v, sch.Labels[w], want); v != w && got < want {
					t.Fatalf("scheme %d, %d->%d: AnswerWithin(%v) = %v, below its bound", i, v, w, want, got)
				}
			}
		}
	}
}

// TestFingerprintIsTheTables: a scheme's fingerprint is a function of
// its tables. Two builds of one (graph, params) agree, full and
// truncated alike; another seed, another strategy or a reweighted graph
// gives another one.
func TestFingerprintIsTheTables(t *testing.T) {
	g, schemes := withinSchemes(t)
	seen := map[uint64]int{}
	for i, sch := range schemes {
		again := build(t, g, withinParams[i])
		if sch.Fingerprint() != again.Fingerprint() {
			t.Fatalf("scheme %d: two builds give %016x and %016x", i, sch.Fingerprint(), again.Fingerprint())
		}
		if j, dup := seen[sch.Fingerprint()]; dup {
			t.Fatalf("schemes %d and %d share fingerprint %016x", j, i, sch.Fingerprint())
		}
		seen[sch.Fingerprint()] = i
	}
	e := g.Neighbors(0)[0]
	ng, _, err := g.ApplyChanges([]graph.Change{{Op: graph.OpReweight, U: 0, V: e.To, W: e.W + 5}})
	if err != nil {
		t.Fatal(err)
	}
	if other := build(t, ng, withinParams[0]); other.Fingerprint() == schemes[0].Fingerprint() {
		t.Fatalf("a reweighted graph keeps fingerprint %016x", other.Fingerprint())
	}
}

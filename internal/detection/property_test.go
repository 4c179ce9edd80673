package detection

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pde/internal/congest"
	"pde/internal/graph"
)

// Property-based verification: for arbitrary random graphs, source sets,
// subdivided lengths, h and σ, the distributed algorithm's output equals
// the centralized answer exactly.

func TestPropertyDetectionMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(26)
		g := graph.RandomConnected(n, 0.05+rng.Float64()*0.2, graph.Weight(1+rng.Intn(8)), rng)
		src := make([]bool, n)
		nsrc := 0
		for v := range src {
			if rng.Float64() < 0.4 {
				src[v] = true
				nsrc++
			}
		}
		if nsrc == 0 {
			src[rng.Intn(n)] = true
		}
		var lengths []int32
		if rng.Intn(2) == 0 {
			lengths = make([]int32, g.M())
			g.Edges(func(_, _ int, w graph.Weight, id int32) {
				lengths[id] = int32(w)
			})
		}
		p := Params{
			IsSource:    src,
			H:           1 + rng.Intn(3*n),
			Sigma:       1 + rng.Intn(n),
			Lengths:     lengths,
			CapMessages: rng.Intn(2) == 0,
		}
		res, err := Run(g, p, congest.Config{})
		if err != nil {
			return false
		}
		return sameDistSrc(res.Lists, BruteForce(g, p))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sameDistSrc reports whether two sets of lists agree on every (Dist, Src).
func sameDistSrc(got, want [][]Entry) bool {
	for v := range want {
		if len(got[v]) != len(want[v]) {
			return false
		}
		for i, w := range want[v] {
			if got[v][i].Dist != w.Dist || got[v][i].Src != w.Src {
				return false
			}
		}
	}
	return true
}

func TestPropertyMessageCapNeverExceeded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(24)
		g := graph.RandomConnected(n, 0.1+rng.Float64()*0.15, graph.Weight(1+rng.Intn(6)), rng)
		src := make([]bool, n)
		for v := 0; v < n; v += 1 + rng.Intn(3) {
			src[v] = true
		}
		sigma := 1 + rng.Intn(8)
		lengths := make([]int32, g.M())
		g.Edges(func(_, _ int, w graph.Weight, id int32) { lengths[id] = int32(w) })
		res, err := Run(g, Params{
			IsSource: src, H: 2 * n, Sigma: sigma, Lengths: lengths, CapMessages: true,
		}, congest.Config{})
		if err != nil {
			return false
		}
		capLimit := int64(sigma) * int64(sigma+1) / 2
		for _, c := range res.SelfEmits {
			if c > capLimit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLongLinesEveryScheduler drives the hot-cell walk where it
// has the most to get wrong: subdivided lengths drawn from all of [1, h],
// so that lines are long, carry several wavefronts at once and go idle in
// the middle while both ends are busy; a few edges longer than h, which
// are excluded; and every scheduler, the paper's rule with the message
// cap on and off (Lemma 3.4 bounds the announcements of that rule only, so
// the other two run uncapped). Whatever order the units are visited in,
// the lists must be the centralized answer.
func TestPropertyLongLinesEveryScheduler(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(25)
		g := graph.RandomConnected(n, 0.05+rng.Float64()*0.2, 1, rng)
		h := 6 + rng.Intn(40)
		lengths := make([]int32, g.M())
		for id := range lengths {
			lengths[id] = 1 + int32(rng.Intn(h))
			if rng.Intn(6) == 0 {
				lengths[id] = int32(h + 1 + rng.Intn(h))
			}
		}
		src := make([]bool, n)
		src[rng.Intn(n)] = true
		for v := range src {
			if rng.Float64() < 0.4 {
				src[v] = true
			}
		}
		const maxDelay = 10
		delays := make([]int32, n)
		for v := range delays {
			delays[v] = int32(rng.Intn(maxDelay))
		}
		p := Params{IsSource: src, H: h, Sigma: 1 + rng.Intn(8), Lengths: lengths}
		want := BruteForce(g, p)
		for _, sched := range []Scheduling{LexSmallest, FIFO, Priority} {
			for _, capped := range []bool{false, true} {
				if capped && sched != LexSmallest {
					continue
				}
				p.Scheduling, p.CapMessages = sched, capped
				p.Delays, p.ExtraRounds = nil, 0
				if sched != LexSmallest {
					// Only the paper's rule comes with the h+σ+1 bound.
					p.ExtraRounds = maxDelay + 6*n
				}
				if sched == Priority {
					p.Delays = delays
				}
				res, err := Run(g, p, congest.Config{})
				if err != nil || !sameDistSrc(res.Lists, want) {
					t.Logf("seed %d scheduling %d capped %v: err %v, or lists differ from BruteForce", seed, sched, capped, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

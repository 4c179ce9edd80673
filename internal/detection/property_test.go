package detection

import (
	"math"
	"math/rand"
	"reflect"
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
		var base float64 // every edge one hop, or as long as its weight
		if rng.Intn(2) == 0 {
			base = 1
		}
		p := Params{
			IsSource:    src,
			Base:        base,
			H:           1 + rng.Intn(3*n),
			Sigma:       1 + rng.Intn(n),
			CapMessages: rng.Intn(2) == 0,
		}
		res, err := Run(g, p, congest.Config{})
		if err != nil {
			return false
		}
		return sameDistSrc(lists(res), BruteForce(g, p))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBaseIsTheRounding guards Params.Length, the one definition
// of the §3 rounding, from outside it: a run at the base b = (1+ε)^i of a
// random instance i must be the run at base 1 on the graph whose weights
// are the lengths min(⌈w/b⌉, H+1), rounded here, in its lists, SelfEmits
// and Metrics; and a run at base 0 the run on the graph of unit weights.
func TestPropertyBaseIsTheRounding(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(26)
		g := graph.RandomConnected(n, 0.05+rng.Float64()*0.2, graph.Weight(1+rng.Intn(200)), rng)
		eps := 0.05 + rng.Float64()
		levels := 1 + int(math.Ceil(math.Log(float64(g.MaxWeight()))/math.Log(1+eps)))
		b := math.Pow(1+eps, float64(rng.Intn(levels)))
		src := make([]bool, n)
		for v := range src {
			src[v] = rng.Float64() < 0.4
		}
		p := Params{IsSource: src, H: 1 + rng.Intn(2*n), Sigma: 1 + rng.Intn(n), CapMessages: rng.Intn(2) == 0}
		same := func(base float64, rounded *graph.Graph) bool {
			p.Base = base
			got, err := Run(g, p, congest.Config{})
			if err != nil {
				return false
			}
			p.Base = 1
			want, err := Run(rounded, p, congest.Config{})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Logf("seed %d, base %v: err %v, or the run differs from base 1 on the rounded graph", seed, base, err)
				return false
			}
			return true
		}
		return same(b, reweigh(g, func(_ int32, w graph.Weight) graph.Weight {
			return graph.Weight(min(math.Ceil(float64(w)/b), float64(p.H+1)))
		})) && same(0, reweigh(g, func(int32, graph.Weight) graph.Weight { return 1 }))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
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
		res, err := Run(g, Params{
			IsSource: src, H: 2 * n, Sigma: sigma, Base: 1, CapMessages: true,
		}, congest.Config{})
		if err != nil {
			return false
		}
		capLimit := int64(sigma) * int64(sigma+1) / 2
		for _, c := range res.SelfEmits {
			if int64(c) > capLimit {
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
		lengths := make([]graph.Weight, g.M())
		for id := range lengths {
			lengths[id] = graph.Weight(1 + rng.Intn(h))
			if rng.Intn(6) == 0 {
				lengths[id] = graph.Weight(h + 1 + rng.Intn(h))
			}
		}
		g = reweigh(g, func(id int32, _ graph.Weight) graph.Weight { return lengths[id] })
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
		p := Params{IsSource: src, H: h, Sigma: 1 + rng.Intn(8), Base: 1}
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
				if err != nil || !sameDistSrc(lists(res), want) {
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

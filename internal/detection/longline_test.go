package detection

import (
	"fmt"
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// TestLongLines holds the multi-word case of the per-line bitsets: lines
// of 131, 200, 257 and 513 virtual edges put 65 to 256 relay cells on
// each side, so a side's emitting and hot sets span two to four words and
// a wavefront crosses every word boundary in both directions. Every
// scheduler runs with the message cap on and off and with Flags nil and
// set. The lists must be the centralized answer, and every entry must
// carry its source's flag. (Lemma 3.4 shows the cap harmless for the paper's rule only; on
// this instance FIFO and Priority finish under it as well.)
func TestLongLines(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 64
	g := graph.RandomConnected(n, 0.04, 1, rng)
	long := []graph.Weight{131, 200, 257, 513}
	lengths := make([]graph.Weight, g.M())
	for id := range lengths {
		if id%3 == 0 {
			lengths[id] = long[id/3%len(long)]
		} else {
			lengths[id] = graph.Weight(1 + rng.Intn(40))
		}
	}
	g = reweigh(g, func(id int32, _ graph.Weight) graph.Weight { return lengths[id] })
	flags := make([]uint8, n)
	delays := make([]int32, n)
	for v := range flags {
		flags[v] = uint8(1 + rng.Intn(255))
		delays[v] = int32(rng.Intn(10))
	}
	base := Params{IsSource: everyKth(n, 5), H: 600, Sigma: 6, Base: 1}
	want := BruteForce(g, base)
	for _, sched := range []Scheduling{LexSmallest, FIFO, Priority} {
		for _, capped := range []bool{false, true} {
			for _, flagged := range []bool{false, true} {
				t.Run(fmt.Sprintf("sched%d/cap=%v/flags=%v", sched, capped, flagged), func(t *testing.T) {
					p := base
					p.Scheduling, p.CapMessages = sched, capped
					if sched != LexSmallest {
						// Only the paper's rule comes with the h+σ+1 bound.
						p.ExtraRounds = 10 + 6*n
					}
					if sched == Priority {
						p.Delays = delays
					}
					if flagged {
						p.Flags = flags
					}
					res, err := Run(g, p, congest.Config{})
					if err != nil {
						t.Fatal(err)
					}
					if !sameDistSrc(lists(res), want) {
						t.Error("lists differ from BruteForce")
					}
					for v, l := range lists(res) {
						for _, e := range l {
							if wantFlag := p.Flags != nil; wantFlag && e.Flag != flags[e.Src] || !wantFlag && e.Flag != 0 {
								t.Fatalf("node %d source %d: flag %d", v, e.Src, e.Flag)
							}
						}
					}
				})
			}
		}
	}
}

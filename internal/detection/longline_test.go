package detection

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// TestLongLines holds the multi-word case of the per-line bitsets: lines
// of 131, 200, 257 and 513 virtual edges put 65 to 256 relay cells on
// each side, so a side's emitting and hot sets span two to four words and
// a wavefront crosses every word boundary in both directions. Every
// scheduler runs with the message cap on and off and with Flags nil and
// set. The sequential and the sharded engine (64 nodes, above the
// engine's inline threshold) must agree entry for entry, Via and Flag
// included, and in every count, and the lists must be the centralized
// answer. (Lemma 3.4 shows the cap harmless for the paper's rule only; on
// this instance FIFO and Priority finish under it as well.)
func TestLongLines(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 64
	g := graph.RandomConnected(n, 0.04, 1, rng)
	long := []int32{131, 200, 257, 513}
	lengths := make([]int32, g.M())
	for id := range lengths {
		if id%3 == 0 {
			lengths[id] = long[id/3%len(long)]
		} else {
			lengths[id] = 1 + int32(rng.Intn(40))
		}
	}
	flags := make([]uint8, n)
	delays := make([]int32, n)
	for v := range flags {
		flags[v] = uint8(1 + rng.Intn(255))
		delays[v] = int32(rng.Intn(10))
	}
	base := Params{IsSource: everyKth(n, 5), H: 600, Sigma: 6, Lengths: lengths}
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
					seq, err := Run(g, p, congest.Config{})
					if err != nil {
						t.Fatal(err)
					}
					par, err := Run(g, p, congest.Config{Parallel: true, Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(seq.Lists, par.Lists) {
						t.Error("sequential and parallel lists differ")
					}
					if !reflect.DeepEqual(seq.SelfEmits, par.SelfEmits) {
						t.Error("sequential and parallel SelfEmits differ")
					}
					if !reflect.DeepEqual(seq.Metrics, par.Metrics) {
						t.Errorf("sequential and parallel Metrics differ: %+v vs %+v", seq.Metrics, par.Metrics)
					}
					if !sameDistSrc(seq.Lists, want) {
						t.Error("lists differ from BruteForce")
					}
					for v, l := range seq.Lists {
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

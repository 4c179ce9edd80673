package oracle

import (
	"math"
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
)

// FuzzOracleVsExact is the differential fuzz layer over the whole serving
// stack: it generates a small random APSP instance, builds PDE tables both
// sequentially and on the parallel instance pipeline, compiles the oracle,
// and checks three contracts against independent references:
//
//  1. build determinism — the parallel build's fingerprint equals the
//     sequential one (the PR 3 pipeline guarantee);
//  2. serving equivalence — oracle Estimate/Lookup/NextHop answers are
//     bit-identical to the legacy core.Result scan paths;
//  3. paper soundness vs exact Dijkstra (internal/graph's lexicographic
//     (weight, hops) ground truth, the same reference internal/baseline
//     measures against) — every estimate w̃d and every delivered route
//     weight lies in [wd, (1+ε)·wd].
//
// Any violation is a real bug in the rounding hierarchy, the engine, the
// combine, the oracle compile, or the router — there is no tolerance knob
// beyond float slack on the (1+ε) product.
func FuzzOracleVsExact(f *testing.F) {
	f.Add(int64(1), int64(8), int64(1), int64(8), int64(40), int64(2))
	f.Add(int64(7), int64(15), int64(0), int64(31), int64(5), int64(0))
	f.Add(int64(42), int64(2), int64(3), int64(1), int64(99), int64(4))
	f.Add(int64(-3), int64(11), int64(2), int64(17), int64(60), int64(1))
	f.Add(int64(1234567), int64(13), int64(1), int64(25), int64(20), int64(3))

	epsChoices := []float64{0.25, 0.5, 1, 2}
	f.Fuzz(func(t *testing.T, seed, nRaw, epsRaw, maxwRaw, densRaw, workersRaw int64) {
		abs := func(x int64) int64 {
			if x < 0 {
				if x == math.MinInt64 {
					return 0
				}
				return -x
			}
			return x
		}
		n := int(2 + abs(nRaw)%14)                     // 2..15 nodes
		eps := epsChoices[abs(epsRaw)%4]               //
		maxW := graph.Weight(1 + abs(maxwRaw)%31)      // 1..31
		dens := float64(abs(densRaw)%100) / 100        // extra-edge probability
		workers := int(1 + abs(workersRaw)%6)          // 1..6 pool width
		rng := rand.New(rand.NewSource(seed))          //
		g := graph.RandomConnected(n, dens, maxW, rng) //
		params := core.APSPParams(n, eps)              // S=V, h=σ=n

		res, err := core.Run(g, params, congest.Config{})
		if err != nil {
			t.Fatalf("sequential build: %v", err)
		}
		par, err := core.Run(g, params, congest.Config{Parallel: true, Workers: workers})
		if err != nil {
			t.Fatalf("parallel build (workers=%d): %v", workers, err)
		}
		if sf, pf := res.Fingerprint(), par.Fingerprint(); sf != pf {
			t.Fatalf("parallel build diverged: seq %016x par %016x (workers=%d)", sf, pf, workers)
		}

		o := Compile(res)
		router := o.Router(g, res)
		for v := 0; v < n; v++ {
			sp := graph.Dijkstra(g, v) // exact reference, symmetric: wd(v,s)=wd(s,v)
			for s := int32(0); s < int32(n); s++ {
				// (2) oracle vs legacy scan, bit for bit.
				oe, ook := o.Estimate(v, s)
				le, lok := res.Estimate(v, s)
				if ook != lok || (ook && oe != le) {
					t.Fatalf("Estimate(%d,%d): oracle %+v/%v legacy %+v/%v", v, s, oe, ook, le, lok)
				}
				ol, olok := o.Lookup(v, s)
				ll, llok := res.Lookup(v, s)
				if olok != llok || (olok && ol != ll) {
					t.Fatalf("Lookup(%d,%d): oracle %+v/%v legacy %+v/%v", v, s, ol, olok, ll, llok)
				}
				onext, onok := o.NextHop(v, s)
				rnext, rnok := router.NextHop(v, s)
				if onok != rnok || (onok && onext != rnext) {
					t.Fatalf("NextHop(%d,%d): oracle %d/%v router %d/%v", v, s, onext, onok, rnext, rnok)
				}

				// (3) soundness against exact Dijkstra. APSP params on a
				// connected graph detect every pair.
				d := sp.Dist[s]
				if !ook {
					t.Fatalf("Estimate(%d,%d): no entry under APSP params", v, s)
				}
				lo := float64(d) * (1 - 1e-9)
				hi := (1 + eps) * float64(d) * (1 + 1e-9)
				if oe.Dist < lo || oe.Dist > hi {
					t.Fatalf("Estimate(%d,%d)=%v outside [wd, (1+ε)wd]=[%d, %v] (eps=%v)", v, s, oe.Dist, d, hi, eps)
				}
				rt, err := router.Route(v, s)
				if err != nil {
					t.Fatalf("Route(%d,%d): %v", v, s, err)
				}
				if float64(rt.Weight) < lo || float64(rt.Weight) > hi {
					t.Fatalf("Route(%d,%d) weight %d outside [wd, (1+ε)wd]=[%d, %v] (eps=%v)",
						v, s, rt.Weight, d, hi, eps)
				}
			}
		}
	})
}

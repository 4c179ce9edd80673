package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// TestPinnedFingerprints compares today's build with yesterday's: the
// other determinism tests set one engine against the other within a single
// binary, which a change that moved both would pass. The constants are
// Result.Fingerprint at the commit before detection's full scan became a
// hot-range walk, so lists, Via tie-breaks, rounds, messages and per-node
// broadcasts are all held. A deliberate change of output re-pins them and
// says so in CHANGES.md.
func TestPinnedFingerprints(t *testing.T) {
	everyThird := func(n int) []bool {
		src := make([]bool, n)
		for v := 0; v < n; v += 3 {
			src[v] = true
		}
		return src
	}
	for _, tc := range []struct {
		topology string
		n        int
		maxW     graph.Weight
		params   func(n int) Params
		want     uint64
	}{
		{"community", 96, 64, func(n int) Params {
			return Params{IsSource: everyThird(n), H: 16, Sigma: 8, Epsilon: 0.5, CapMessages: true}
		}, 0x85ab76fe0138c174},
		{"roadgrid", 100, 64, func(n int) Params {
			return Params{IsSource: everyThird(n), H: 16, Sigma: 8, Epsilon: 0.5, CapMessages: true}
		}, 0x2a20fc5a9829a313},
		// σ = n: lists long enough to be looked up through the source index.
		{"random", 64, 4, func(n int) Params { return APSPParams(n, 1) }, 0xeb09dd9d663f4e3b},
	} {
		t.Run(fmt.Sprintf("%s-n%d", tc.topology, tc.n), func(t *testing.T) {
			g, err := graph.Generate(tc.topology, tc.n, tc.maxW, rand.New(rand.NewSource(17)))
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []congest.Config{{}, {Parallel: true, Workers: 3}} {
				res, err := Run(g, tc.params(g.N()), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Fingerprint(); got != tc.want {
					t.Errorf("parallel=%v: fingerprint %#016x, pinned %#016x", cfg.Parallel, got, tc.want)
				}
			}
		})
	}
}

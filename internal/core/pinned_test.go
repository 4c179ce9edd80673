package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// TestPinnedFingerprints compares today's build with yesterday's: the
// other determinism tests set one pool width against another within a
// single binary, which a change that moved both would pass. legacy is
// linearFingerprint of the build, pinned at the commit before detection's
// full scan became a hot-range walk, so lists, Via tie-breaks, rounds,
// messages and per-node broadcasts of a cold build are all held. want is
// Result.Fingerprint, re-pinned when it came to name outputs only (no
// rounds, messages or broadcasts, which a repaired instance does less of)
// and to fold one memoized word per row; that legacy still matches shows
// the re-pin moved the hash and nothing a cold build computes. A
// deliberate change of output re-pins both and says so in CHANGES.md.
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
		legacy   uint64
	}{
		{"community", 96, 64, func(n int) Params {
			return Params{IsSource: everyThird(n), H: 16, Sigma: 8, Epsilon: 0.5}
		}, 0x022c97c07cd0bdb9, 0x85ab76fe0138c174},
		{"roadgrid", 100, 64, func(n int) Params {
			return Params{IsSource: everyThird(n), H: 16, Sigma: 8, Epsilon: 0.5}
		}, 0x46fa1b40d15c3119, 0x2a20fc5a9829a313},
		// σ = n: lists long enough to be looked up through the source index.
		{"random", 64, 4, func(n int) Params { return APSPParams(n, 1) }, 0x9556749c8f5d755d, 0xeb09dd9d663f4e3b},
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
					t.Errorf("width %d: fingerprint %#016x, pinned %#016x", cfg.EffectiveWorkers(), got, tc.want)
				}
				if got := linearFingerprint(res); got != tc.legacy {
					t.Errorf("width %d: legacy fingerprint %#016x, pinned %#016x", cfg.EffectiveWorkers(), got, tc.legacy)
				}
			}
		})
	}
}

package detection

import (
	"math/rand"
	"sort"
	"testing"
)

// refList is the list a unit keeps, written the slow way: every source once
// at its best distance, sorted by (Dist, Src), cut at σ. What is cut is
// forgotten, as in the unit.
type refList struct {
	sigma   int
	entries []Entry
}

func (r *refList) insert(d, s, via int32) bool {
	at := -1
	for i, e := range r.entries {
		if e.Src == s {
			if e.Dist <= d {
				return false
			}
			at = i
		}
	}
	if at >= 0 {
		r.entries = append(r.entries[:at], r.entries[at+1:]...)
	}
	r.entries = append(r.entries, Entry{Dist: d, Src: s, Via: via})
	sort.Slice(r.entries, func(i, j int) bool {
		a, b := r.entries[i], r.entries[j]
		return a.Dist < b.Dist || a.Dist == b.Dist && a.Src < b.Src
	})
	if len(r.entries) > r.sigma {
		cut := r.entries[r.sigma]
		r.entries = r.entries[:r.sigma]
		return cut.Src != s
	}
	return true
}

// TestInsertMatchesReference drives nodeProc.insert directly, on the
// node's own unit (which carries Via) and on a relay cell sharing its key
// slab, with streams chosen to reach every path: the walk of a short list,
// windows outgrown one after the other, the source index and its rebuild
// — both when the list has doubled and when evictions alone have filled
// it with stale slots — improvements of held sources, re-offers of evicted
// ones, full lists and pairs beyond the hop bound.
func TestInsertMatchesReference(t *testing.T) {
	const h = 1 << 20
	for _, sigma := range []int{0, 1, 5, reserveEntries, shortScan + 1, 40, 150} {
		for _, universe := range []int32{8, 60, 4000} {
			rng := rand.New(rand.NewSource(int64(sigma)*7919 + int64(universe)))
			sh := &shared{sigma: sigma, beyond: pack(h+1, 0), capLimit: 1 << 30, sched: LexSmallest}
			reserve := min(sigma, reserveEntries)
			n := &nodeProc{sh: sh, keys: make([]uint64, 2*reserve), via: make([]int32, reserve)}
			n.self = unit{cap: int32(reserve)}
			cell := &unit{off: int32(reserve), cap: int32(reserve)}
			refSelf, refCell := &refList{sigma: sigma}, &refList{sigma: sigma}
			check := func(step int, u *unit, ref *refList) {
				t.Helper()
				l := n.list(u)
				if len(l) != len(ref.entries) {
					t.Fatalf("σ=%d universe=%d step %d: list has %d entries, reference %d", sigma, universe, step, len(l), len(ref.entries))
				}
				for i, k := range l {
					want := ref.entries[i]
					if keyDist(k) != want.Dist || keySrc(k) != want.Src || k&sentBit != 0 {
						t.Fatalf("σ=%d universe=%d step %d: entry %d is (%d, %d), reference %+v", sigma, universe, step, i, keyDist(k), keySrc(k), want)
					}
					if u == &n.self && n.via[i] != want.Via {
						t.Fatalf("σ=%d universe=%d step %d: entry %d has via %d, reference %d", sigma, universe, step, i, n.via[i], want.Via)
					}
				}
			}
			for step := 0; step < 3000; step++ {
				// Distances drift down, so that late pairs evict early ones.
				d := int32(rng.Intn(2000)) + int32(3000-step)
				if rng.Intn(50) == 0 {
					d = h + 1 + int32(rng.Intn(3))
				}
				s, via := rng.Int31n(universe), rng.Int31n(9)
				want := d <= h && refSelf.insert(d, s, via)
				if got := n.insert(&n.self, pack(d, s), via); got != want {
					t.Fatalf("σ=%d universe=%d step %d: self insert(%d, %d) = %v, reference %v", sigma, universe, step, d, s, got, want)
				}
				check(step, &n.self, refSelf)
				want = d <= h && refCell.insert(d, s, -1)
				if got := n.insert(cell, pack(d, s)|highBit, -1); got != want {
					t.Fatalf("σ=%d universe=%d step %d: cell insert(%d, %d) = %v, reference %v", sigma, universe, step, d, s, got, want)
				}
				check(step, cell, refCell)
			}
		}
	}
}

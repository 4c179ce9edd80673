package main

import "time"

// yardstick is a fixed computation that touches no code of the
// repository: it fills an array from a xorshift generator, radix-sorts
// it, binary-searches it and chases pointers through a table larger than
// the second-level cache. The harness times it between the parts of a
// window. On a shared virtual machine the wall clock of one binary on one
// input moves by a quarter and more from one ten-minute stretch to the
// next, whatever else the host is running, and the yardstick moves with
// it: a workload's time over the yardstick's time of the same seconds is
// the steadier number (README.md, Steadiness, has the measurements).
type yardstick struct {
	keys, scratch []uint32
	next          []int32
	sum           uint64 // keeps the compiler from dropping the work
}

const (
	yardKeys  = 1 << 18 // 1 MB of keys, and as much scratch
	yardTable = 1 << 20 // 4 MB of links
	yardReps  = 2
)

func newYardstick() *yardstick {
	y := &yardstick{keys: make([]uint32, yardKeys), scratch: make([]uint32, yardKeys), next: make([]int32, yardTable)}
	// One cycle through the whole table, in an order the prefetcher cannot
	// guess: a multiplicative step that is coprime to the table's size.
	const step = 0x9E3779B1 % yardTable
	for i, k := 0, int32(0); i < yardTable; i++ {
		n := int32((int(k) + step) % yardTable)
		y.next[k] = n
		k = n
	}
	return y
}

// once does the fixed work once.
func (y *yardstick) once() {
	for rep := 0; rep < yardReps; rep++ {
		x := uint64(88172645463325252) + uint64(rep)
		for i := range y.keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			y.keys[i] = uint32(x)
		}
		src, dst := y.keys, y.scratch
		for shift := 0; shift < 32; shift += 8 {
			var count [257]int
			for _, k := range src {
				count[(k>>shift)&0xff+1]++
			}
			for i := 1; i < len(count); i++ {
				count[i] += count[i-1]
			}
			for _, k := range src {
				d := (k >> shift) & 0xff
				dst[count[d]] = k
				count[d]++
			}
			src, dst = dst, src
		}
		// Four passes: the sorted keys are back in y.keys.
		for i := 0; i < yardKeys/4; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			want, lo, hi := uint32(x), 0, len(y.keys)
			for lo < hi {
				if mid := (lo + hi) / 2; y.keys[mid] < want {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			y.sum += uint64(lo)
		}
		k := int32(x % yardTable)
		for i := 0; i < yardTable/4; i++ {
			k = y.next[k]
		}
		y.sum += uint64(k)
	}
}

// time does the fixed work once, on the calling goroutine alone, and
// returns how long it took.
func (y *yardstick) time() time.Duration {
	t0 := time.Now()
	y.once()
	return time.Since(t0)
}

// Package par is the repo's one worker pool. Corollary 3.5's rounding
// instances, the rows of a query batch, the members of a set-distance
// evaluation and the sources of an exact APSP are mutually independent,
// and every fan-out over such items goes through For (or Chunks, which
// is For over contiguous ranges), under one width rule (Width).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Width resolves a requested width against n items: 0 or less means
// GOMAXPROCS, and never more goroutines than items.
func Width(width, n int) int {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	return min(width, n)
}

// For calls fn(worker, i) once for every i in [0, n) on Width(width, n)
// goroutines, worker in [0, Width(width, n)) naming the goroutine, so
// that fn can keep per-worker state in a slice of that length. At width
// 1 or less it runs on the caller's goroutine as worker 0. Indices are
// claimed in ascending order, and once fn fails at index i no index
// above i starts (those already running finish); For returns the error
// of the lowest failed index, which is the same at every width because
// every index below it was claimed, and so runs, before it.
func For(width, n int, fn func(worker, i int) error) error {
	width = Width(width, n)
	if width <= 1 {
		for i := range n {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Int64 // the lowest failed index so far, n while none
		mu     sync.Mutex
		first  error
	)
	failed.Store(int64(n))
	wg.Add(width)
	for w := range width {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= failed.Load() {
					return
				}
				if err := fn(w, int(i)); err != nil {
					mu.Lock()
					if i < failed.Load() {
						failed.Store(i)
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// Chunks cuts [0, n) into at most Width(width, n) contiguous ranges of
// equal length (the last one may be shorter) and calls fn(lo, hi) once
// for each through For: for items too cheap to claim one at a time.
func Chunks(width, n int, fn func(lo, hi int)) {
	width = Width(width, n)
	if width < 1 {
		return
	}
	size := (n + width - 1) / width
	For(width, (n+size-1)/size, func(_, c int) error {
		fn(c*size, min(c*size+size, n))
		return nil
	})
}

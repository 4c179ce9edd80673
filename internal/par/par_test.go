package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForRunsEveryIndexOnce: at widths 1, 2, n+5 and 0 (GOMAXPROCS)
// every index runs exactly once, on a worker index below the resolved
// width, which never exceeds the item count.
func TestForRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	for _, width := range []int{1, 2, n + 5, 0, -3} {
		runs := make([]atomic.Int32, n)
		resolved := Width(width, n)
		if resolved < 1 || resolved > n {
			t.Fatalf("width %d resolves to %d for %d items", width, resolved, n)
		}
		var badWorker atomic.Int64
		badWorker.Store(-1)
		if err := For(width, n, func(w, i int) error {
			if w < 0 || w >= resolved {
				badWorker.Store(int64(w))
			}
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if w := badWorker.Load(); w >= 0 {
			t.Errorf("width %d: worker index %d outside [0, %d)", width, w, resolved)
		}
		for i := range runs {
			if c := runs[i].Load(); c != 1 {
				t.Errorf("width %d: index %d ran %d times", width, i, c)
			}
		}
	}
	if err := For(4, 0, func(_, _ int) error { t.Error("ran an index of an empty range"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestWidthRule: 0 or less is GOMAXPROCS, and never more than the items.
func TestWidthRule(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ width, n, want int }{
		{0, 1 << 20, procs}, {-1, 1 << 20, procs}, {3, 10, 3}, {1 << 22, 12, 12}, {5, 0, 0}, {0, 1, 1},
	} {
		if got := Width(c.width, c.n); got != c.want {
			t.Errorf("Width(%d, %d) = %d, want %d", c.width, c.n, got, c.want)
		}
	}
}

// TestWidthOneRunsInline: a width that resolves to one worker runs every
// index on the caller's goroutine — this test function is on fn's stack —
// and a wider one does not.
func TestWidthOneRunsInline(t *testing.T) {
	onCaller := func() bool {
		pcs := make([]uintptr, 64)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, ".TestWidthOneRunsInline") {
				return true
			}
			if !more {
				return false
			}
		}
	}
	for _, c := range []struct{ width, n int }{{1, 10}, {8, 1}, {0, 1}} {
		For(c.width, c.n, func(w, i int) error {
			if w != 0 || !onCaller() {
				t.Errorf("For(%d, %d): index %d ran on worker %d off the caller's goroutine", c.width, c.n, i, w)
			}
			return nil
		})
	}
	var inline atomic.Int32
	For(2, 2, func(_, _ int) error {
		if onCaller() {
			inline.Add(1)
		}
		return nil
	})
	if inline.Load() != 0 {
		t.Error("For(2, 2) ran an index on the caller's goroutine")
	}
}

// TestForStopsAboveAFailure: once an index fails no index above it
// starts, and For returns the lowest failed index's error at every
// width; every index below it ran exactly once.
func TestForStopsAboveAFailure(t *testing.T) {
	const n = 200
	errAt := func(i int) error { return fmt.Errorf("index %d", i) }

	// One worker: exactly the indices up to the failure run.
	var ran []int
	err := For(1, n, func(_, i int) error {
		ran = append(ran, i)
		if i == 5 {
			return errAt(i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 5" || len(ran) != 6 || ran[5] != 5 {
		t.Fatalf("width 1: err %v after running %v, want index 5's after 0..5", err, ran)
	}

	// Every index from 7 on fails: whichever worker records first, the
	// error is 7's, and 0..6 each ran once.
	for _, width := range []int{2, 4, n + 5} {
		runs := make([]atomic.Int32, n)
		err := For(width, n, func(_, i int) error {
			runs[i].Add(1)
			if i >= 7 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 7" {
			t.Fatalf("width %d: err %v, want index 7's", width, err)
		}
		for i := range 7 {
			if c := runs[i].Load(); c != 1 {
				t.Fatalf("width %d: index %d below the failure ran %d times", width, i, c)
			}
		}
	}

	// Index 10 fails at once and every later index takes a millisecond:
	// only the indices claimed before the failure landed start, not the
	// 189 that a fleet that ignored it would run.
	var above atomic.Int32
	boom := errors.New("boom")
	err = For(2, n, func(_, i int) error {
		switch {
		case i == 10:
			return boom
		case i > 10:
			above.Add(1)
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("width 2: err %v, want boom", err)
	}
	if a := above.Load(); a > n/4 {
		t.Fatalf("width 2: %d indices above the failure started", a)
	}
}

// TestChunks: the ranges cover [0, n) exactly once, contiguous and at
// most Width(width, n) of them; an empty range calls nothing.
func TestChunks(t *testing.T) {
	for _, c := range []struct{ width, n int }{{1, 10}, {3, 10}, {4, 5}, {16, 3}, {0, 1000}, {2, 0}} {
		var mu sync.Mutex
		cover := make([]int, c.n)
		calls := 0
		Chunks(c.width, c.n, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if lo >= hi {
				t.Errorf("Chunks(%d, %d): empty range [%d, %d)", c.width, c.n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				cover[i]++
			}
		})
		if calls > Width(c.width, c.n) {
			t.Errorf("Chunks(%d, %d): %d ranges, more than the width %d", c.width, c.n, calls, Width(c.width, c.n))
		}
		for i, k := range cover {
			if k != 1 {
				t.Fatalf("Chunks(%d, %d): index %d covered %d times", c.width, c.n, i, k)
			}
		}
	}
}

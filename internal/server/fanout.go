package server

import (
	"sync"
	"sync/atomic"
)

// Span is one batch-sized [Lo, Hi) index range of a query stream.
type Span struct{ Lo, Hi int }

// SplitSpans cuts n stream items into batch-sized spans — the request
// granularity DriveBatches callers fire at the daemon.
func SplitSpans(n, batch int) []Span {
	if batch <= 0 {
		batch = n
	}
	spans := make([]Span, 0, (n+batch-1)/batch)
	for lo := 0; lo < n; lo += batch {
		spans = append(spans, Span{Lo: lo, Hi: min(lo+batch, n)})
	}
	return spans
}

// DriveBatches is pde-query's client-side fan-out, for HTTP batches and
// pipelined PDE2 windows alike: it claims batch indexes 0..batches-1
// across clients goroutines (each calling do(client, batch)) and stops
// the whole fleet on the first error, which it returns. do is
// called at most once per batch index; client identifies the goroutine so
// callers can give each its own connection-reusing Client.
func DriveBatches(clients, batches int, do func(client, batch int) error) error {
	if clients <= 0 {
		clients = 1
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		firstErr atomic.Pointer[error]
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= batches || firstErr.Load() != nil {
					return
				}
				if err := do(c, i); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if errp := firstErr.Load(); errp != nil {
		return *errp
	}
	return nil
}

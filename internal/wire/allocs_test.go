package wire

import (
	"testing"

	"pde/internal/oracle"
)

// These are the committed allocation-regression guards behind the PDE2
// performance claim: after warm-up, the client round trip and the
// server's whole decode→answer→encode frame loop perform zero heap
// allocations. testing.AllocsPerRun counts global mallocs, so over a
// loopback socket it covers both sides of the protocol at once — a
// regression on either side (a forgotten buffer reuse, an accidental
// interface boxing, an append in the frame loop) fails here before it
// shows up as a throughput cliff on the serve-* workloads of benchmark/.
//
// CI runs these via `go test -run AllocsPerRun -count=1 ./internal/wire
// ./internal/server`.

func TestAllocsPerRunWireConn(t *testing.T) {
	be := fakeBackend{"alpha": newFakeShard(512, 0xfeed)}
	s := startServer(t, be, Config{})
	c := dialBound(t, s.Addr(), "alpha")

	const per = 256
	qs := make([]oracle.Query, per)
	out := make([]oracle.Answer, per)
	hops := make([]Hop, per)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(i % 512), S: int32((i * 7) % 512)}
	}
	// Warm up: grows the client's frame buffers and the server arena.
	for i := 0; i < 3; i++ {
		if _, err := c.Estimate(qs, out); err != nil {
			t.Fatal(err)
		}
		if _, err := c.NextHop(qs, hops); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Estimate(qs, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Estimate round trip allocates %.2f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.NextHop(qs, hops); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("NextHop round trip allocates %.2f objects/op, want 0", allocs)
	}
}

func TestAllocsPerRunWireSortedPath(t *testing.T) {
	// Same guard with the frame-local locality sort engaged (count >=
	// sortThreshold): the sort scratch lives in the arena, so sorting
	// must not cost allocations either.
	be := fakeBackend{"alpha": newFakeShard(512, 0xfeed)}
	s := startServer(t, be, Config{})
	c := dialBound(t, s.Addr(), "alpha")

	const per = 2 * sortThreshold
	qs := make([]oracle.Query, per)
	out := make([]oracle.Answer, per)
	rng := uint32(99)
	for i := range qs {
		rng = rng*1664525 + 1013904223
		qs[i] = oracle.Query{V: int32(rng % 512), S: int32((rng >> 10) % 512)}
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Estimate(qs, out); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Estimate(qs, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("sorted Estimate round trip allocates %.2f objects/op, want 0", allocs)
	}
}

func TestAllocsPerRunWirePipeline(t *testing.T) {
	be := fakeBackend{"alpha": newFakeShard(512, 0xfeed)}
	s := startServer(t, be, Config{})
	c := dialBound(t, s.Addr(), "alpha")
	p, err := c.NewPipeline(16)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const frames = 16
	const per = 64
	qss := make([][]oracle.Query, frames)
	outs := make([][]oracle.Answer, frames)
	ress := make([]Result, frames)
	for f := range qss {
		qss[f] = make([]oracle.Query, per)
		outs[f] = make([]oracle.Answer, per)
		for i := range qss[f] {
			qss[f][i] = oracle.Query{V: int32((f + i) % 512), S: int32((f * i) % 512)}
		}
	}
	burst := func() {
		for f := 0; f < frames; f++ {
			if err := p.Estimate(qss[f], outs[f], &ress[f]); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		burst()
	}
	if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
		t.Errorf("pipelined burst (%d frames) allocates %.2f objects/op, want 0", frames, allocs)
	}
}

package server

import (
	"math/rand"
	"net"
	"testing"

	"pde/internal/oracle"
	"pde/internal/wire"
)

// BenchmarkWirePipeline drives bursts of full-size estimate frames
// through the PDE2 path against real oracle tables — the profile target
// for the serving hot path (decode, row grouping, answer,
// scatter-encode). One op is a burst of depth frames; every frame has
// its own answers and Result, and each is checked after the burst.
func BenchmarkWirePipeline(b *testing.B) {
	spec := Spec{Topology: "random", N: 512, Eps: 1, MaxW: 4, Seed: 4}
	sh, err := buildShard(spec)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewWithPrebuilt(Config{}, Prebuilt{Name: "bench", Spec: spec, G: sh.g, Res: sh.oracle().Res})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ws := wire.Serve(ln, srv, wire.Config{})
	defer ws.Close()
	c, err := wire.Dial(ws.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Bind("bench"); err != nil {
		b.Fatal(err)
	}

	const batch, depth = 16384, 16
	rng := rand.New(rand.NewSource(11))
	qs := make([]oracle.Query, batch)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(rng.Intn(spec.N)), S: int32(rng.Intn(spec.N))}
	}
	outs := make([][]oracle.Answer, depth)
	for f := range outs {
		outs[f] = make([]oracle.Answer, batch)
	}
	ress := make([]wire.Result, depth)
	p, err := c.NewPipeline(depth)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := range outs {
			if err := p.Estimate(qs, outs[f], &ress[f]); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Wait(); err != nil {
			b.Fatal(err)
		}
		for f := range ress {
			if ress[f].Err != nil {
				b.Fatalf("frame %d: %v", f, ress[f].Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*depth*batch), "ns/query")
}

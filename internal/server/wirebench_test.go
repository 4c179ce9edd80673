package server

import (
	"math/rand"
	"net"
	"testing"

	"pde/internal/oracle"
	"pde/internal/wire"
)

// BenchmarkWirePipeline drives full-size estimate frames through the
// PDE2 path against real oracle tables — the profile target for the
// serving hot path (decode, locality sort, answer, scatter-encode).
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

	const batch = 16384
	rng := rand.New(rand.NewSource(11))
	qs := make([]oracle.Query, batch)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(rng.Intn(spec.N)), S: int32(rng.Intn(spec.N))}
	}
	out := make([]oracle.Answer, batch)
	p, err := c.NewPipeline(16)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	var res wire.Result
	b.SetBytes(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Estimate(qs, out, &res); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Wait(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if res.Err != nil {
		b.Fatal(res.Err)
	}
}

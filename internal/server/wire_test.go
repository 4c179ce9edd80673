package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"
	"pde/internal/wire"
)

// startWire boots a PDE2 listener in front of srv and registers its
// address for /v1/stats discovery, mirroring what cmd/pde-serve does
// under -wire-addr.
func startWire(t *testing.T, srv *Server, cfg wire.Config) *wire.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("wire listen: %v", err)
	}
	ws := wire.Serve(ln, srv, cfg)
	srv.SetWireAddr(ws.Addr())
	t.Cleanup(func() { ws.Close() })
	return ws
}

func dialWire(t *testing.T, addr, shard string) *wire.Conn {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("wire dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if _, _, err := c.Bind(shard); err != nil {
		t.Fatalf("wire bind %q: %v", shard, err)
	}
	return c
}

// TestGoldenWirePDE2Session pins the PDE2 protocol bytes end to end: a
// committed Bind+Estimate+NextHop request stream and the exact byte
// stream the golden shard answers with. Any drift in the frame header,
// the record layouts or the fingerprint stamp fails here before it
// breaks deployed wire clients.
func TestGoldenWirePDE2Session(t *testing.T) {
	sh, err := buildShard(goldenSpec)
	if err != nil {
		t.Fatalf("building golden shard: %v", err)
	}
	srv, err := NewWithPrebuilt(Config{MaxBatch: 16},
		Prebuilt{Name: "golden", Spec: sh.spec, G: sh.g, Res: sh.oracle().Res})
	if err != nil {
		t.Fatalf("NewWithPrebuilt: %v", err)
	}
	defer srv.Close()
	ws := startWire(t, srv, wire.Config{})

	qs := goldenOracleQueries()

	// The request stream: Bind("golden") corr=1, Estimate corr=2,
	// NextHop corr=3, all written back to back as a pipelined client
	// would.
	var req bytes.Buffer
	bind := make([]byte, wire.HeaderSize+len("golden"))
	wire.PutHeader(bind, wire.FrameBind, 1, len("golden"))
	copy(bind[wire.HeaderSize:], "golden")
	req.Write(bind)
	qframe := make([]byte, wire.HeaderSize+wire.QueryPayloadLen(len(qs)))
	wire.PutHeader(qframe, wire.FrameEstimate, 2, wire.QueryPayloadLen(len(qs)))
	wire.PutQueryPayload(qframe[wire.HeaderSize:], qs)
	req.Write(qframe)
	wire.PutHeader(qframe, wire.FrameNextHop, 3, wire.QueryPayloadLen(len(qs)))
	req.Write(qframe)
	checkGolden(t, "pde2_session.golden.bin", req.Bytes())

	nc, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write(req.Bytes()); err != nil {
		t.Fatalf("write session: %v", err)
	}
	respLen := (wire.HeaderSize + wire.BoundPayloadLen) +
		(wire.HeaderSize + wire.AnswersPayloadLen(len(qs))) +
		(wire.HeaderSize + wire.HopsPayloadLen(len(qs)))
	resp := make([]byte, respLen)
	if _, err := io.ReadFull(nc, resp); err != nil {
		t.Fatalf("read responses: %v", err)
	}
	checkGolden(t, "pde2_responses.golden.bin", resp)

	// The answer records inside the PDE2 frame must be byte-identical to
	// the HTTP binary codec's records for the same queries: both paths
	// serve the same structs through the same layout, pinned against
	// each other so they cannot drift apart.
	ansPayload := resp[wire.HeaderSize+wire.BoundPayloadLen+wire.HeaderSize:]
	ansPayload = ansPayload[:wire.AnswersPayloadLen(len(qs))]
	want := make([]oracle.Answer, len(qs))
	sh.inst.AnswerInto(qs, want, 0)
	httpFrame := EncodeAnswers(want)
	// HTTP frame: magic(4) + count(4) + records; PDE2 payload: fp(8) +
	// count(4) + records.
	if !bytes.Equal(ansPayload[12:], httpFrame[8:]) {
		t.Fatal("PDE2 answer records differ from the HTTP binary codec records for the same answers")
	}
	hopPayload := resp[respLen-wire.HopsPayloadLen(len(qs)):]
	wantHops := make([]Hop, len(qs))
	for i, q := range qs {
		switch {
		case q.V == q.S:
			wantHops[i] = Hop{Next: q.V, OK: true}
		case want[i].OK && want[i].Est.Via >= 0:
			wantHops[i] = Hop{Next: want[i].Est.Via, OK: true}
		default:
			wantHops[i] = Hop{Next: -1, OK: false}
		}
	}
	httpHops := EncodeHops(wantHops)
	if !bytes.Equal(hopPayload[12:], httpHops[8:]) {
		t.Fatal("PDE2 hop records differ from the HTTP binary codec records for the same hops")
	}
}

// hopTableInstance is a stub scheme.Instance whose answers are chosen by
// the queried source id, so a test can put every branch of the next-hop
// convention on the wire without hunting for a topology that has them:
// s = 1 has no table entry, s = 2 has an entry that cannot forward
// (Via -1), every other s forwards via node s.
type hopTableInstance struct{ g *graph.Graph }

func (h hopTableInstance) Scheme() string                        { return "stub" }
func (h hopTableInstance) Spec() scheme.Spec                     { return scheme.Spec{} }
func (h hopTableInstance) Graph() *graph.Graph                   { return h.g }
func (h hopTableInstance) Fingerprint() uint64                   { return 0x5eed }
func (h hopTableInstance) BuildNS() int64                        { return 0 }
func (h hopTableInstance) Accounting() scheme.Accounting         { return scheme.Accounting{} }
func (h hopTableInstance) Route(int, int32) (*core.Route, error) { return nil, errors.New("stub") }
func (h hopTableInstance) AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int) {
	for i, q := range qs {
		switch q.S {
		case 1:
			out[i] = oracle.Answer{}
		case 2:
			out[i] = oracle.Answer{OK: true, Est: core.Estimate{Dist: 1, Src: q.S, Via: -1}}
		default:
			out[i] = oracle.Answer{OK: true, Est: core.Estimate{Dist: 1, Src: q.S, Via: q.S}}
		}
	}
}

// TestNextHopConventionAcrossTransports pins the single wire.DeriveHop
// from all three entry points: JSON /v1/nexthop, binary /v1/nexthop and a
// PDE2 NextHop frame must return the same hop for every branch of the
// convention.
func TestNextHopConventionAcrossTransports(t *testing.T) {
	b := graph.NewBuilder(8)
	for v := 0; v+1 < 8; v++ {
		b.AddEdge(v, v+1, 1)
	}
	srv, err := assemble(Config{}, []namedShard{{name: "hops", sh: instShard(hopTableInstance{g: b.MustBuild()})}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ws := startWire(t, srv, wire.Config{})

	cases := []struct {
		name string
		q    oracle.Query
		want Hop
	}{
		{"v == s is terminal delivery", oracle.Query{V: 3, S: 3}, Hop{Next: 3, OK: true}},
		{"v == s wins over a missing entry", oracle.Query{V: 1, S: 1}, Hop{Next: 1, OK: true}},
		{"no table entry", oracle.Query{V: 0, S: 1}, Hop{Next: -1, OK: false}},
		{"entry with Via < 0", oracle.Query{V: 0, S: 2}, Hop{Next: -1, OK: false}},
		{"ordinary entry", oracle.Query{V: 0, S: 5}, Hop{Next: 5, OK: true}},
	}
	qs := make([]oracle.Query, len(cases))
	for i, c := range cases {
		qs[i] = c.q
	}

	ctx := context.Background()
	cl := &Client{BaseURL: ts.URL, Shard: "hops"}
	jsonHops, _, err := cl.NextHop(ctx, qs, true)
	if err != nil {
		t.Fatalf("JSON /v1/nexthop: %v", err)
	}
	binHops, _, err := cl.NextHop(ctx, qs, false)
	if err != nil {
		t.Fatalf("binary /v1/nexthop: %v", err)
	}
	wireHops := make([]wire.Hop, len(qs))
	if _, err := dialWire(t, ws.Addr(), "hops").NextHop(qs, wireHops); err != nil {
		t.Fatalf("PDE2 NextHop: %v", err)
	}
	for i, c := range cases {
		if jsonHops[i] != c.want || binHops[i] != c.want || wireHops[i] != c.want {
			t.Errorf("%s %+v: JSON %+v, binary %+v, PDE2 %+v, want %+v",
				c.name, c.q, jsonHops[i], binHops[i], wireHops[i], c.want)
		}
	}
}

// TestChurnWireAllQueryTypesUnderRebuilds is the wire-path face of the
// generation-coherence churn suite, run under -race in CI: synchronous
// and pipelined PDE2 connections hammer Estimate and NextHop while an
// admin loop rebuilds the shard back and forth between two sizes —
// including the shrinking direction. Every answer frame must stamp a
// known generation's fingerprint and carry answers bit-consistent with
// that generation; out_of_range errors are legal only for the wide
// probe set that exceeds the small generation.
func TestChurnWireAllQueryTypesUnderRebuilds(t *testing.T) {
	big := Spec{Topology: "random", N: 48, Eps: 1, MaxW: 4, Seed: 1}
	small := big
	small.N = 24
	small.Seed = 2
	shBig, err := buildShard(big)
	if err != nil {
		t.Fatal(err)
	}
	shSmall, err := buildShard(small)
	if err != nil {
		t.Fatal(err)
	}
	gens := map[uint64]*shard{shBig.fpRaw: shBig, shSmall.fpRaw: shSmall}
	gensByName := map[string]*shard{shBig.fp: shBig, shSmall.fp: shSmall}

	narrow := make([]oracle.Query, 0, 32)
	for i := 0; i < 32; i++ {
		narrow = append(narrow, oracle.Query{V: int32((i * 5) % small.N), S: int32((i * 7) % small.N)})
	}
	wide := make([]oracle.Query, 0, 32)
	for i := 0; i < 32; i++ {
		wide = append(wide, oracle.Query{V: int32((i * 3) % big.N), S: int32((i*11 + 40) % big.N)})
	}

	expectAns := make(map[uint64][]oracle.Answer, 2)
	expectHops := make(map[uint64][]Hop, 2)
	for _, sh := range []*shard{shBig, shSmall} {
		out := make([]oracle.Answer, len(narrow))
		sh.inst.AnswerInto(narrow, out, 0)
		expectAns[sh.fpRaw] = out
		hops := make([]Hop, len(narrow))
		for i, q := range narrow {
			switch {
			case q.V == q.S:
				hops[i] = Hop{Next: q.V, OK: true}
			case out[i].OK && out[i].Est.Via >= 0:
				hops[i] = Hop{Next: out[i].Est.Via, OK: true}
			default:
				hops[i] = Hop{Next: -1, OK: false}
			}
		}
		expectHops[sh.fpRaw] = hops
	}

	srv, err := NewWithPrebuilt(Config{}, Prebuilt{Name: "main", Spec: big, G: shBig.g, Res: shBig.oracle().Res})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ws := startWire(t, srv, wire.Config{})

	var (
		stop    atomic.Bool
		served  atomic.Int64
		wg      sync.WaitGroup
		failure atomic.Pointer[string]
	)
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failure.CompareAndSwap(nil, &msg)
		stop.Store(true)
	}
	reader := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := fn(); err != nil {
					fail("%v", err)
					return
				}
				served.Add(1)
			}
		}()
	}
	checkNarrowAns := func(fp uint64, got []oracle.Answer) error {
		want, known := expectAns[fp]
		if !known {
			return fmt.Errorf("answer frame stamped unknown generation %016x", fp)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("answer %d inconsistent with stamped generation %016x: got %+v want %+v", i, fp, got[i], want[i])
			}
		}
		return nil
	}
	checkNarrowHops := func(fp uint64, got []Hop) error {
		want, known := expectHops[fp]
		if !known {
			return fmt.Errorf("hop frame stamped unknown generation %016x", fp)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("hop %d inconsistent with stamped generation %016x: got %+v want %+v", i, fp, got[i], want[i])
			}
		}
		return nil
	}

	// Synchronous reader: narrow Estimate and NextHop, must never fail.
	{
		c := dialWire(t, ws.Addr(), "main")
		out := make([]oracle.Answer, len(narrow))
		hops := make([]Hop, len(narrow))
		reader(func() error {
			fp, err := c.Estimate(narrow, out)
			if err != nil {
				return fmt.Errorf("sync estimate: %w", err)
			}
			if err := checkNarrowAns(fp, out); err != nil {
				return err
			}
			fp, err = c.NextHop(narrow, hops)
			if err != nil {
				return fmt.Errorf("sync nexthop: %w", err)
			}
			return checkNarrowHops(fp, hops)
		})
	}

	// Wide synchronous reader: out_of_range is legal while the small
	// generation serves; a success must be coherent with the stamped
	// generation.
	{
		c := dialWire(t, ws.Addr(), "main")
		out := make([]oracle.Answer, len(wide))
		reader(func() error {
			fp, err := c.Estimate(wide, out)
			if err != nil {
				var re *wire.RemoteError
				if errors.As(err, &re) && re.Code == wire.ErrCodeOutOfRange {
					return nil // wide ids validated against the small snapshot
				}
				return fmt.Errorf("wide estimate: %w", err)
			}
			sh, known := gens[fp]
			if !known {
				return fmt.Errorf("wide answer frame stamped unknown generation %016x", fp)
			}
			want := make([]oracle.Answer, len(wide))
			sh.inst.AnswerInto(wide, want, 0)
			for i := range want {
				if out[i] != want[i] {
					return fmt.Errorf("wide answer %d inconsistent with stamped generation %016x", i, fp)
				}
			}
			return nil
		})
	}

	// Pipelined reader: a full depth-8 burst of alternating Estimate and
	// NextHop frames in flight across the swaps. Every frame must stamp
	// a known generation and match it — frames in one burst may legally
	// stamp different generations when a swap lands mid-burst.
	{
		c := dialWire(t, ws.Addr(), "main")
		p, err := c.NewPipeline(8)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		const frames = 8
		outs := make([][]oracle.Answer, frames)
		hops := make([][]Hop, frames)
		ress := make([]wire.Result, frames)
		for f := range outs {
			outs[f] = make([]oracle.Answer, len(narrow))
			hops[f] = make([]Hop, len(narrow))
		}
		reader(func() error {
			for f := 0; f < frames; f++ {
				var err error
				if f%2 == 0 {
					err = p.Estimate(narrow, outs[f], &ress[f])
				} else {
					err = p.NextHop(narrow, hops[f], &ress[f])
				}
				if err != nil {
					return fmt.Errorf("pipeline submit %d: %w", f, err)
				}
			}
			if err := p.Wait(); err != nil {
				return fmt.Errorf("pipeline wait: %w", err)
			}
			for f := 0; f < frames; f++ {
				if ress[f].Err != nil {
					return fmt.Errorf("pipelined frame %d: %w", f, ress[f].Err)
				}
				if f%2 == 0 {
					if err := checkNarrowAns(ress[f].FP, outs[f]); err != nil {
						return fmt.Errorf("pipelined frame %d: %w", f, err)
					}
				} else if err := checkNarrowHops(ress[f].FP, hops[f]); err != nil {
					return fmt.Errorf("pipelined frame %d: %w", f, err)
				}
			}
			return nil
		})
	}

	client := ts.Client()
	for cycle := 0; cycle < 20 && !stop.Load(); cycle++ {
		spec := small
		if cycle%2 == 1 {
			spec = big
		}
		reqBody, _ := json.Marshal(RebuildRequest{Shard: "main", N: &spec.N, Seed: &spec.Seed})
		resp, err := client.Post(ts.URL+"/v1/rebuild", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatalf("cycle %d: rebuild: %v", cycle, err)
		}
		var rb RebuildResponse
		err = json.NewDecoder(resp.Body).Decode(&rb)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("cycle %d: rebuild status %d err %v", cycle, resp.StatusCode, err)
		}
		if _, known := gensByName[rb.NewFingerprint]; !known {
			t.Fatalf("cycle %d: rebuild produced unknown generation %s", cycle, rb.NewFingerprint)
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := failure.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if served.Load() == 0 {
		t.Fatal("wire readers served no frames — the race window never opened")
	}
	t.Logf("served %d wire reader iterations across 20 shrink/grow rebuilds", served.Load())
}

// TestAllocsPerRunWireOracleServe is the allocation guard over the real
// serving stack — oracle tables behind *Server, not the wire package's
// fakes: a warmed connection's decode→validate→answer→encode round trip
// must not allocate, on both the direct and the locality-sorted paths.
func TestAllocsPerRunWireOracleServe(t *testing.T) {
	srv, _ := newTestServer(t, Config{})

	// The locality sort is selected by frame size (1024 queries and up):
	// one frame size either side of it covers both paths.
	for name, count := range map[string]int{"direct": 256, "sorted": 2048} {
		t.Run(name, func(t *testing.T) {
			qs := make([]oracle.Query, count)
			out := make([]oracle.Answer, count)
			hops := make([]Hop, count)
			rng := uint32(7)
			for i := range qs {
				rng = rng*1664525 + 1013904223
				qs[i] = oracle.Query{V: int32(rng % 32), S: int32((rng >> 8) % 32)}
			}
			ws := startWire(t, srv, wire.Config{})
			c := dialWire(t, ws.Addr(), "main")
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
				t.Errorf("oracle-backed Estimate round trip allocates %.2f objects/op, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := c.NextHop(qs, hops); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("oracle-backed NextHop round trip allocates %.2f objects/op, want 0", allocs)
			}
		})
	}
}

// TestAllocsPerRunWireCompactServe is the same guard over a compact
// shard: the wire layer answers each frame with AnswerInto(…, 1), which
// the compact backend must run inline — a closure handed to a fan-out
// helper escapes and costs one allocation per frame.
func TestAllocsPerRunWireCompactServe(t *testing.T) {
	sp := schemeSpecs()["compact"]
	srv, err := New(map[string]Spec{"main": sp}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	ws := startWire(t, srv, wire.Config{})
	c := dialWire(t, ws.Addr(), "main")

	qs := make([]oracle.Query, 16)
	out := make([]oracle.Answer, len(qs))
	rng := uint32(7)
	for i := range qs {
		rng = rng*1664525 + 1013904223
		qs[i] = oracle.Query{V: int32(rng % uint32(sp.N)), S: int32((rng >> 8) % uint32(sp.N))}
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
		t.Errorf("compact-backed Estimate round trip allocates %.2f objects/op, want 0", allocs)
	}
}

// TestStatsCoherentUnderWireTraffic is the satellite audit behind "stats
// counters must be race-clean": wire and HTTP readers hammer one shard
// while /v1/stats is polled concurrently (the -race CI lane covers the
// reads), and after quiescing the wire counters must account for exactly
// the frames and queries sent, with the per-endpoint totals including
// the wire share.
func TestStatsCoherentUnderWireTraffic(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	ws := startWire(t, srv, wire.Config{})

	const (
		workers       = 4
		framesPerConn = 50
		perFrame      = 16
	)
	qs := make([]oracle.Query, perFrame)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(i % 32), S: int32((i * 3) % 32)}
	}

	var wg, pollWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent stats poller: under -race this catches any non-atomic
	// counter read in the report path.
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := ts.Client().Get(ts.URL + "/v1/stats")
			if err != nil {
				return
			}
			var sr StatsResponse
			derr := json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if derr != nil {
				t.Errorf("stats decode: %v", derr)
				return
			}
			if sr.WireAddr != ws.Addr() {
				t.Errorf("stats wire_addr = %q, want %q", sr.WireAddr, ws.Addr())
				return
			}
		}
	}()

	var firstErr atomic.Pointer[error]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.Dial(ws.Addr())
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return
			}
			defer c.Close()
			if _, _, err := c.Bind("main"); err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return
			}
			out := make([]oracle.Answer, perFrame)
			hops := make([]Hop, perFrame)
			for f := 0; f < framesPerConn; f++ {
				if f%2 == 0 {
					_, err = c.Estimate(qs, out)
				} else {
					_, err = c.NextHop(qs, hops)
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}(w)
	}
	// HTTP traffic alongside, so the shared per-endpoint counters see
	// both transports at once.
	wg.Add(1)
	httpReqs := 0
	go func() {
		defer wg.Done()
		wq := make([]WireQuery, perFrame)
		for i, q := range qs {
			wq[i] = WireQuery{V: q.V, S: q.S}
		}
		body, _ := json.Marshal(BatchRequest{Shard: "main", Queries: wq})
		for f := 0; f < framesPerConn; f++ {
			resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			httpReqs++
		}
	}()

	wg.Wait()
	close(stop)
	pollWG.Wait()
	if ep := firstErr.Load(); ep != nil {
		t.Fatalf("wire worker: %v", *ep)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := sr.Shards["main"]
	wantFrames := int64(workers * framesPerConn)
	wantWireQueries := wantFrames * perFrame
	if st.Wire.Frames != wantFrames || st.Wire.Queries != wantWireQueries {
		t.Fatalf("wire counters = %+v, want %d frames / %d queries", st.Wire, wantFrames, wantWireQueries)
	}
	// Per-endpoint totals are transport-agnostic: they must include the
	// wire share plus the HTTP requests that completed.
	wantEstimate := wantFrames/2*perFrame + int64(httpReqs)*perFrame
	if st.Queries.Estimate != wantEstimate {
		t.Fatalf("estimate total = %d, want %d (wire share %d + http share %d)",
			st.Queries.Estimate, wantEstimate, wantFrames/2*perFrame, int64(httpReqs)*perFrame)
	}
	if st.Queries.NextHop != wantFrames/2*perFrame {
		t.Fatalf("nexthop total = %d, want %d", st.Queries.NextHop, wantFrames/2*perFrame)
	}
}

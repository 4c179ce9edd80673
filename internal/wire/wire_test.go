package wire

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"pde/internal/oracle"
)

// --- fake backend -------------------------------------------------------
//
// The wire package is transport + framing; these fakes answer queries
// with a deterministic function of (v, s, generation) so tests can
// verify both payload integrity and generation coherence without
// building real tables (internal/server's tests cover the real adapter).

type fakeSnap struct {
	n  int32
	fp uint64
}

// AnswerInto answers deterministically per (v, s, fp): dist encodes all
// three so a mis-routed or torn answer is detectable, and v == s is a
// miss so hop derivation's terminal rule is exercised.
func (s *fakeSnap) AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int) {
	for i, q := range qs {
		if q.V == q.S {
			out[i] = oracle.Answer{}
			continue
		}
		out[i].OK = true
		out[i].Est.Dist = float64(q.V)*1e6 + float64(q.S) + float64(s.fp%97)
		out[i].Est.Src = q.S
		out[i].Est.Via = (q.V + 1) % s.n
		out[i].Est.Instance = int32(s.fp % 7)
		out[i].Est.Flag = byte(q.S % 3)
	}
}

type fakeShard struct {
	snap    atomic.Pointer[fakeSnap]
	frames  atomic.Int64
	queries atomic.Int64
}

type fakeBackend map[string]*fakeShard

func (b fakeBackend) WireHandler() Handler { return &fakeConn{be: b} }

// fakeConn is the Handler a daemon would implement: one generation loaded
// per frame validates, answers and stamps it.
type fakeConn struct {
	be fakeBackend
	sh *fakeShard
}

func (c *fakeConn) Close() {}

func (c *fakeConn) Bind(name string) (int32, uint64, *RemoteError) {
	sh, ok := c.be[name]
	if !ok {
		return 0, 0, &RemoteError{Code: ErrCodeUnknownShard, Message: "no shard named " + name}
	}
	c.sh = sh
	snap := sh.snap.Load()
	return snap.n, snap.fp, nil
}

func (c *fakeConn) Answer(b *Batch) (uint64, *RemoteError) {
	snap := c.sh.snap.Load()
	qs, _, refusal := b.InOrder(snap.n)
	if refusal != nil {
		return 0, refusal
	}
	snap.AnswerInto(qs, b.Out, 1)
	if b.Type == FrameNextHop {
		for i, q := range qs {
			b.Hops[i] = DeriveHop(q, b.Out[i])
		}
	}
	c.sh.frames.Add(1)
	c.sh.queries.Add(int64(len(qs)))
	return snap.fp, nil
}

func newFakeShard(n int32, fp uint64) *fakeShard {
	sh := &fakeShard{}
	sh.snap.Store(&fakeSnap{n: n, fp: fp})
	return sh
}

// startServer boots a loopback wire server and returns it with its
// address; cleanup closes it.
func startServer(t *testing.T, be Backend, cfg Config) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, be, cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func dialBound(t *testing.T, addr, shard string) *Conn {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, _, err := c.Bind(shard); err != nil {
		t.Fatalf("Bind(%q): %v", shard, err)
	}
	return c
}

func wantAnswers(snap *fakeSnap, qs []oracle.Query) []oracle.Answer {
	out := make([]oracle.Answer, len(qs))
	snap.AnswerInto(qs, out, 1)
	return out
}

// --- header / payload codecs -------------------------------------------

func TestHeaderRoundTrip(t *testing.T) {
	var buf [HeaderSize]byte
	putHeader(buf[:], FrameEstimate, 0xdeadbeefcafe, 12345)
	tt, corr, plen, err := parseHeader(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if tt != FrameEstimate || corr != 0xdeadbeefcafe || plen != 12345 {
		t.Fatalf("round trip got (%v, %#x, %d)", tt, corr, plen)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	good := make([]byte, HeaderSize)
	putHeader(good, FramePing, 7, 0)
	cases := []struct {
		name    string
		mutate  func([]byte)
		wantErr error
	}{
		{"short", func(b []byte) {}, ErrShortHeader},
		{"magic", func(b []byte) { b[0] = 'X' }, ErrBadMagic},
		{"magic-tail", func(b []byte) { b[3] = '1' }, ErrBadMagic},
		{"flags", func(b []byte) { b[5] = 1 }, ErrBadFlags},
		{"reserved", func(b []byte) { b[6] = 9 }, ErrBadFlags},
	}
	for _, tc := range cases {
		buf := append([]byte(nil), good...)
		if tc.name == "short" {
			buf = buf[:HeaderSize-1]
		}
		tc.mutate(buf)
		if _, _, _, err := parseHeader(buf); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestPayloadCodecsRoundTrip(t *testing.T) {
	qs := []oracle.Query{{V: 0, S: 0}, {V: 3, S: 1}, {V: -0x7fffffff, S: 0x7fffffff}}
	qbuf := make([]byte, QueryPayloadLen(len(qs)))
	PutQueryPayload(qbuf, qs)
	count, err := checkQueryPayload(qbuf)
	if err != nil || count != len(qs) {
		t.Fatalf("checkQueryPayload = (%d, %v)", count, err)
	}
	for i := range qs {
		if got := QueryAt(qbuf, i); got != qs[i] {
			t.Errorf("query %d: %+v != %+v", i, got, qs[i])
		}
	}

	as := []oracle.Answer{{}, {OK: true}}
	as[1].Est.Dist = 3.75
	as[1].Est.Src = 9
	as[1].Est.Via = -1
	as[1].Est.Instance = 4
	as[1].Est.Flag = 2
	abuf := make([]byte, AnswersPayloadLen(len(as)))
	PutAnswersPrefix(abuf, 0x1122334455667788, len(as))
	for i, a := range as {
		PutAnswerAt(abuf, i, a)
	}
	fp, count, err := checkStamp(abuf, AnswerRecordSize)
	if err != nil || fp != 0x1122334455667788 || count != len(as) {
		t.Fatalf("checkStamp(answers) = (%#x, %d, %v)", fp, count, err)
	}
	for i := range as {
		var got oracle.Answer
		if err := AnswerAt(abuf, i, &got); err != nil {
			t.Fatal(err)
		}
		if got != as[i] {
			t.Errorf("answer %d: %+v != %+v", i, got, as[i])
		}
	}

	hs := []Hop{{Next: -1, OK: false}, {Next: 42, OK: true}}
	hbuf := make([]byte, stampedLen(len(hs), HopRecordSize))
	putStamp(hbuf, 99, len(hs))
	for i, h := range hs {
		putHopAt(hbuf, i, h)
	}
	fp, count, err = checkStamp(hbuf, HopRecordSize)
	if err != nil || fp != 99 || count != len(hs) {
		t.Fatalf("checkStamp(hops) = (%d, %d, %v)", fp, count, err)
	}
	for i := range hs {
		var got Hop
		if err := hopAt(hbuf, i, &got); err != nil {
			t.Fatal(err)
		}
		if got != hs[i] {
			t.Errorf("hop %d: %+v != %+v", i, got, hs[i])
		}
	}
}

func TestRecordEncodersWriteEveryByte(t *testing.T) {
	// Arena reuse means encode buffers carry the previous frame's bytes;
	// a record encoder that skips the false branch of a bool would leak
	// stale ok bytes. Fill the buffer with 0xFF and encode zero values.
	abuf := make([]byte, AnswersPayloadLen(1))
	for i := range abuf {
		abuf[i] = 0xFF
	}
	PutAnswersPrefix(abuf, 0, 1)
	PutAnswerAt(abuf, 0, oracle.Answer{})
	var a oracle.Answer
	if err := AnswerAt(abuf, 0, &a); err != nil {
		t.Fatalf("stale bytes leaked into answer record: %v", err)
	}
	if a != (oracle.Answer{}) {
		t.Fatalf("decoded %+v, want zero answer", a)
	}

	hbuf := make([]byte, stampedLen(1, HopRecordSize))
	for i := range hbuf {
		hbuf[i] = 0xFF
	}
	putStamp(hbuf, 0, 1)
	putHopAt(hbuf, 0, Hop{})
	var h Hop
	if err := hopAt(hbuf, 0, &h); err != nil {
		t.Fatalf("stale bytes leaked into hop record: %v", err)
	}
	if h != (Hop{}) {
		t.Fatalf("decoded %+v, want zero hop", h)
	}
}

// --- end-to-end over loopback ------------------------------------------

func TestBindEstimateNextHop(t *testing.T) {
	be := fakeBackend{"alpha": newFakeShard(64, 0xabc)}
	s := startServer(t, be, Config{})
	c := dialBound(t, s.Addr(), "alpha")
	if c.N() != 64 || c.FingerprintRaw() != 0xabc {
		t.Fatalf("bound (n=%d, fp=%#x)", c.N(), c.FingerprintRaw())
	}

	qs := []oracle.Query{{V: 1, S: 2}, {V: 5, S: 5}, {V: 63, S: 0}}
	out := make([]oracle.Answer, len(qs))
	fp, err := c.Estimate(qs, out)
	if err != nil {
		t.Fatal(err)
	}
	if fp != 0xabc {
		t.Fatalf("estimate stamped %#x, want 0xabc", fp)
	}
	want := wantAnswers(be["alpha"].snap.Load(), qs)
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("answer %d: %+v != %+v", i, out[i], want[i])
		}
	}

	hops := make([]Hop, len(qs))
	fp, err = c.NextHop(qs, hops)
	if err != nil {
		t.Fatal(err)
	}
	if fp != 0xabc {
		t.Fatalf("nexthop stamped %#x, want 0xabc", fp)
	}
	wantHops := []Hop{{Next: 2, OK: true}, {Next: 5, OK: true}, {Next: 0, OK: true}}
	for i := range wantHops {
		if hops[i] != wantHops[i] {
			t.Errorf("hop %d: %+v != %+v", i, hops[i], wantHops[i])
		}
	}
	if got := be["alpha"].frames.Load(); got != 2 {
		t.Errorf("ObserveWire saw %d frames, want 2", got)
	}
	if got := be["alpha"].queries.Load(); got != 6 {
		t.Errorf("ObserveWire saw %d queries, want 6", got)
	}

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedPathMatchesUnsorted(t *testing.T) {
	// At sortThreshold queries and above the server answers row by row
	// and scatters back; the answers must be exactly what the unsorted
	// path produces. Send one batch as a single frame above the threshold
	// and again in frames below it, and compare.
	be := fakeBackend{"alpha": newFakeShard(512, 0x5eed)}
	s := startServer(t, be, Config{})
	c := dialBound(t, s.Addr(), "alpha")

	const chunk = sortThreshold / 2
	qs := make([]oracle.Query, 2*sortThreshold+chunk/2)
	rng := uint32(0x12345)
	for i := range qs {
		rng = rng*1664525 + 1013904223
		qs[i] = oracle.Query{V: int32(rng % 512), S: int32((rng >> 9) % 512)}
	}
	o1 := make([]oracle.Answer, len(qs))
	o2 := make([]oracle.Answer, len(qs))
	h1 := make([]Hop, len(qs))
	h2 := make([]Hop, len(qs))
	fp1, err := c.Estimate(qs, o1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NextHop(qs, h1); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(qs); lo += chunk {
		hi := min(lo+chunk, len(qs))
		fp2, err := c.Estimate(qs[lo:hi], o2[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if fp1 != fp2 {
			t.Fatalf("fingerprints differ: %#x vs %#x", fp1, fp2)
		}
		if _, err := c.NextHop(qs[lo:hi], h2[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("answer %d differs between sorted and unsorted paths: %+v vs %+v", i, o1[i], o2[i])
		}
		if h1[i] != h2[i] {
			t.Fatalf("hop %d differs between sorted and unsorted paths", i)
		}
	}
}

func TestGroupRowsGroupsStablyByRow(t *testing.T) {
	// Row grouping must hand the answer side every query of one row in one
	// run, carry each query's wire position, and keep wire order inside a
	// row (the placement is stable) — for one digit of v (n ≤ 2048), at
	// the digit boundary, and for two and three digits.
	for _, n := range []int32{1, 384, 2048, 2049, 5000, 1 << 23} {
		var b Batch
		b.ensure(FrameEstimate, 3*sortThreshold)
		rng := uint32(n)
		for i := range b.Qs {
			rng = rng*1664525 + 1013904223
			b.Qs[i] = oracle.Query{V: int32(rng>>3) % n, S: int32(rng>>17) % n}
			if i%5 == 0 && i > 0 {
				b.Qs[i].V = b.Qs[i-1].V // force runs inside a row
			}
		}
		qs, sorted, refusal := b.InOrder(n)
		if refusal != nil || !sorted {
			t.Fatalf("n=%d: InOrder = sorted %v, refusal %v", n, sorted, refusal)
		}
		seen := make([]bool, len(b.Qs))
		for i, q := range qs {
			at := b.perm[i]
			if seen[at] {
				t.Fatalf("n=%d: wire position %d placed twice", n, at)
			}
			seen[at] = true
			if b.Qs[at] != q {
				t.Fatalf("n=%d: record %d is %+v, wire position %d holds %+v", n, i, q, at, b.Qs[at])
			}
			if i > 0 && (qs[i-1].V > q.V || qs[i-1].V == q.V && b.perm[i-1] > at) {
				t.Fatalf("n=%d: records %d, %d out of row order: %+v@%d then %+v@%d",
					n, i-1, i, qs[i-1], b.perm[i-1], q, at)
			}
		}
	}
}

func TestSortedPathOnMultiDigitShard(t *testing.T) {
	// A shard of more than 2048 nodes has two 11-bit digits of v, so the
	// grouping takes a second stable placement; answers must still land
	// on their wire positions.
	const n = 5000
	be := fakeBackend{"wide": newFakeShard(n, 0xd161)}
	s := startServer(t, be, Config{})
	c := dialBound(t, s.Addr(), "wide")

	qs := make([]oracle.Query, 4*sortThreshold)
	rng := uint32(0x2b)
	for i := range qs {
		rng = rng*1664525 + 1013904223
		qs[i] = oracle.Query{V: int32(rng % n), S: int32((rng >> 7) % n)}
	}
	out := make([]oracle.Answer, len(qs))
	hops := make([]Hop, len(qs))
	if _, err := c.Estimate(qs, out); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NextHop(qs, hops); err != nil {
		t.Fatal(err)
	}
	want := wantAnswers(be["wide"].snap.Load(), qs)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("answer %d: %+v, want %+v", i, out[i], want[i])
		}
		if h := DeriveHop(qs[i], want[i]); hops[i] != h {
			t.Fatalf("hop %d: %+v, want %+v", i, hops[i], h)
		}
	}
}

func TestGroupedFrameRefusesLastOutOfRange(t *testing.T) {
	// The range check of a grouped frame is fused with the row count; the
	// refusal must still name the first bad index, here the last one.
	be := fakeBackend{"alpha": newFakeShard(512, 0x1a57)}
	s := startServer(t, be, Config{})
	c := dialBound(t, s.Addr(), "alpha")

	qs := make([]oracle.Query, sortThreshold)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(i % 512), S: int32((i * 3) % 512)}
	}
	last := len(qs) - 1
	qs[last] = oracle.Query{V: 7, S: 512}
	_, err := c.Estimate(qs, make([]oracle.Answer, len(qs)))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != ErrCodeOutOfRange {
		t.Fatalf("Estimate = %v, want an out-of-range refusal", err)
	}
	if want := fmt.Sprintf("query %d: (v=7, s=512) outside [0, 512)", last); re.Message != want {
		t.Fatalf("refusal %q, want %q", re.Message, want)
	}
	// The connection stays open and serves the corrected frame.
	qs[last].S = 5
	if _, err := c.Estimate(qs, make([]oracle.Answer, len(qs))); err != nil {
		t.Fatal(err)
	}
}

// --- pipelining ---------------------------------------------------------

func TestPipelineDepth(t *testing.T) {
	be := fakeBackend{"alpha": newFakeShard(256, 0xf00)}
	s := startServer(t, be, Config{})
	c := dialBound(t, s.Addr(), "alpha")
	p, err := c.NewPipeline(16)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const frames = 200
	const per = 32
	qss := make([][]oracle.Query, frames)
	outs := make([][]oracle.Answer, frames)
	ress := make([]Result, frames)
	for f := 0; f < frames; f++ {
		qss[f] = make([]oracle.Query, per)
		outs[f] = make([]oracle.Answer, per)
		for i := range qss[f] {
			qss[f][i] = oracle.Query{V: int32((f*per + i) % 256), S: int32((f + i) % 256)}
		}
		if err := p.Estimate(qss[f], outs[f], &ress[f]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := be["alpha"].snap.Load()
	for f := 0; f < frames; f++ {
		if ress[f].Err != nil {
			t.Fatalf("frame %d: %v", f, ress[f].Err)
		}
		if ress[f].FP != 0xf00 {
			t.Fatalf("frame %d stamped %#x", f, ress[f].FP)
		}
		want := wantAnswers(snap, qss[f])
		for i := range want {
			if outs[f][i] != want[i] {
				t.Fatalf("frame %d answer %d: %+v != %+v", f, i, outs[f][i], want[i])
			}
		}
	}
	// The pipeline stays usable after Wait; mix in NextHop frames.
	hops := make([]Hop, per)
	var hres Result
	if err := p.NextHop(qss[0], hops, &hres); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if hres.Err != nil || hres.FP != 0xf00 {
		t.Fatalf("nexthop result %+v", hres)
	}
}

// TestPipelineMidStreamSwap rebuilds the fake shard while frames are in
// flight: every frame must come back stamped with a known generation and
// its answers must match exactly that generation — the wire-path
// statement of the HTTP hot-swap guarantee.
func TestPipelineMidStreamSwap(t *testing.T) {
	sh := newFakeShard(128, 1)
	be := fakeBackend{"alpha": sh}
	s := startServer(t, be, Config{})
	c := dialBound(t, s.Addr(), "alpha")
	p, err := c.NewPipeline(8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	gens := map[uint64]*fakeSnap{}
	for fp := uint64(1); fp <= 22; fp++ {
		gens[fp] = &fakeSnap{n: 128, fp: fp}
	}

	const frames = 420
	const per = 16
	qss := make([][]oracle.Query, frames)
	outs := make([][]oracle.Answer, frames)
	ress := make([]Result, frames)
	for f := 0; f < frames; f++ {
		qss[f] = make([]oracle.Query, per)
		outs[f] = make([]oracle.Answer, per)
		for i := range qss[f] {
			qss[f][i] = oracle.Query{V: int32((f + i) % 128), S: int32((f * 3) % 128)}
		}
		if err := p.Estimate(qss[f], outs[f], &ress[f]); err != nil {
			t.Fatal(err)
		}
		// 20 swaps spread across the stream, while up to 8 frames are in
		// flight.
		if f%20 == 10 {
			sh.snap.Store(gens[uint64(f/20)+2])
		}
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for f := 0; f < frames; f++ {
		if ress[f].Err != nil {
			t.Fatalf("frame %d: %v", f, ress[f].Err)
		}
		snap, ok := gens[ress[f].FP]
		if !ok {
			t.Fatalf("frame %d stamped unknown generation %#x", f, ress[f].FP)
		}
		seen[ress[f].FP] = true
		want := wantAnswers(snap, qss[f])
		for i := range want {
			if outs[f][i] != want[i] {
				t.Fatalf("frame %d answer %d inconsistent with stamped generation %#x", f, i, ress[f].FP)
			}
		}
	}
	if len(seen) < 3 {
		t.Fatalf("stream only saw %d generations; swaps did not interleave", len(seen))
	}
}

func TestPipelinePerFrameError(t *testing.T) {
	be := fakeBackend{"alpha": newFakeShard(16, 1)}
	s := startServer(t, be, Config{})
	c := dialBound(t, s.Addr(), "alpha")
	p, err := c.NewPipeline(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	good := []oracle.Query{{V: 1, S: 2}}
	bad := []oracle.Query{{V: 99, S: 2}}
	var r1, r2, r3 Result
	o1, o2, o3 := make([]oracle.Answer, 1), make([]oracle.Answer, 1), make([]oracle.Answer, 1)
	if err := p.Estimate(good, o1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := p.Estimate(bad, o2, &r2); err != nil {
		t.Fatal(err)
	}
	if err := p.Estimate(good, o3, &r3); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if r1.Err != nil || r3.Err != nil {
		t.Fatalf("good frames failed: %v, %v", r1.Err, r3.Err)
	}
	var re *RemoteError
	if !errors.As(r2.Err, &re) || re.Code != ErrCodeOutOfRange {
		t.Fatalf("bad frame err = %v, want out_of_range", r2.Err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	be := fakeBackend{"alpha": newFakeShard(16, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, be, Config{})
	c := dialBound(t, s.Addr(), "alpha")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The client's next round trip must fail promptly, not hang.
	_, err = c.Estimate([]oracle.Query{{V: 1, S: 2}}, make([]oracle.Answer, 1))
	if err == nil {
		t.Fatal("estimate succeeded against a closed server")
	}
}

func TestConnRejectsOversizedResponse(t *testing.T) {
	// A server announcing a payload above the client's cap must be
	// rejected before allocation.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		// Swallow the Bind frame, then answer with a huge header.
		buf := make([]byte, 1024)
		nc.Read(buf)
		var hdr [HeaderSize]byte
		putHeader(hdr[:], FrameBound, 1, 1<<30)
		nc.Write(hdr[:])
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Bind("alpha"); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
}

func TestFrameTypeString(t *testing.T) {
	for _, tc := range []struct {
		t    FrameType
		want string
	}{{FrameBind, "Bind"}, {FrameAnswers, "Answers"}, {FrameError, "Error"}, {FrameType(0x42), "Unknown"}} {
		if got := tc.t.String(); got != tc.want {
			t.Errorf("%#x.String() = %q, want %q", uint8(tc.t), got, tc.want)
		}
	}
}

func TestRemoteErrorRendering(t *testing.T) {
	e := &RemoteError{Code: ErrCodeOutOfRange, Message: "query 3 out of range"}
	want := "wire: remote error out_of_range: query 3 out of range"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
	if e.Fatal() {
		t.Error("out_of_range must not be fatal")
	}
	if !(&RemoteError{Code: ErrCodeBadFrame}).Fatal() {
		t.Error("bad_frame must be fatal")
	}
	_ = fmt.Sprintf("%v", e)
}

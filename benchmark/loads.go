package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"
	"pde/internal/server"
	"pde/internal/setdist"
	"pde/internal/wire"
)

// tally counts the operations a run checked and the ones that failed:
// errors, refusals, wrong answers and generation mismatches alike.
type tally struct {
	attempted, failed atomic.Int64
}

// check counts one operation and reports ok back. The first few
// failures of a run are explained on standard error. Its arguments are
// boxed whether or not it fails, so call sites that must not allocate
// branch to ok and fail themselves.
func (t *tally) check(ok bool, format string, args ...any) bool {
	if ok {
		t.ok()
	} else {
		t.fail(format, args...)
	}
	return ok
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	if t.failed.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", args...)
	}
}

// sample is what one measured window yields.
type sample struct {
	lat      []int64 // ns, one per operation of record
	work     float64 // verified units of work
	workSecs float64 // the time they took
}

// load is one workload's system under test. The harness calls setup
// (timed: that is setup_s) and teardown several times, then prepare
// (untimed: the checker's reference answers), run and verify once each.
type load interface {
	setup() error
	prepare() error
	run(window time.Duration, tr *tracer) sample
	verify()
	teardown()
	// served is the instance whose tables the workload builds or serves.
	served() scheme.Instance
}

// closedLoop calls op from n goroutines, each issuing its next call only
// when the previous one returned, until d has passed. It returns every
// call's duration.
func closedLoop(n int, d time.Duration, op func(client, i int)) []int64 {
	deadline := time.Now().Add(d)
	per := make([][]int64, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				op(c, i)
				per[c] = append(per[c], time.Since(t0).Nanoseconds())
			}
		}(c)
	}
	wg.Wait()
	var all []int64
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// queryStream is count seeded uniform random (v, s) queries over n nodes.
func queryStream(rng *rand.Rand, n, count int) []oracle.Query {
	qs := make([]oracle.Query, count)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(rng.Intn(n)), S: int32(rng.Intn(n))}
	}
	return qs
}

// edgeList is g's edges, each as a reweight to its current weight.
func edgeList(g *graph.Graph) []graph.Change {
	edges := make([]graph.Change, 0, g.M())
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		edges = append(edges, graph.Change{Op: graph.OpReweight, U: u, V: v, W: w})
	})
	return edges
}

// nudge moves an edge's weight by one, up or down by a seeded coin,
// staying inside [1, maxW] so the rounding hierarchy keeps its depth.
func nudge(ch graph.Change, maxW graph.Weight, rng *rand.Rand) graph.Change {
	if ch.W <= 1 || (ch.W < maxW && rng.Intn(2) == 0) {
		ch.W++
	} else {
		ch.W--
	}
	return ch
}

// sets draws k seeded (A, B) member-set pairs over n nodes.
func sets(rng *rand.Rand, n, k int) [][2][]int32 {
	members := func(size int) []int32 {
		m := make([]int32, min(size, n))
		for i := range m {
			m[i] = int32(rng.Intn(n))
		}
		return m
	}
	out := make([][2][]int32, k)
	for i := range out {
		out[i] = [2][]int32{members(setA), members(setB)}
	}
	return out
}

// pdeResults lists the PDE runs behind an instance's tables: the one
// result of an oracle instance, every direct level (and the skeleton) of
// a compact one.
func pdeResults(inst scheme.Instance) []*core.Result {
	switch in := inst.(type) {
	case *scheme.OracleInstance:
		return []*core.Result{in.Res}
	case *scheme.CompactInstance:
		var rs []*core.Result
		for _, r := range in.Sch.R {
			if r != nil {
				rs = append(rs, r)
			}
		}
		if in.Sch.SkelR != nil {
			rs = append(rs, in.Sch.SkelR)
		}
		return rs
	}
	return nil
}

// --- build-dense, build-sparse -----------------------------------------

// buildLoad rebuilds one oracle spec from cold, back to back.
type buildLoad struct {
	sp    scheme.Spec
	tl    *tally
	ref   scheme.Instance
	refFP uint64
}

func (b *buildLoad) setup() (err error) {
	if b.ref, err = scheme.Build(b.sp); err == nil {
		b.refFP = b.ref.Fingerprint()
	}
	return err
}

func (b *buildLoad) prepare() error          { return nil }
func (b *buildLoad) teardown()               {}
func (b *buildLoad) served() scheme.Instance { return b.ref }

// build is one cold build and the time it took; digesting the result
// for the check is outside that time. Traced, it calls the three layers
// in the order scheme.Build does, one span each, and stops before the
// stretch probe and accounting, which the probes report as
// scheme.build_overhead_s.
func (b *buildLoad) build(tr *tracer, i int64) (res *core.Result, d time.Duration, err error) {
	t0 := time.Now()
	if !tr.on() {
		inst, err := scheme.Build(b.sp)
		if err != nil {
			return nil, 0, err
		}
		return pdeResults(inst)[0], time.Since(t0), nil
	}
	root := tr.begin("build", -1, i)
	id := tr.begin("graph.generate", root, i)
	g, err := b.sp.BuildGraph()
	tr.end(id)
	if err == nil {
		id = tr.begin("core.run", root, i)
		res, err = core.Run(g, b.sp.Params(g.N()), congest.Config{Parallel: true, Workers: b.sp.BuildWorkers})
		tr.end(id)
	}
	if err == nil {
		id = tr.begin("oracle.compile", root, i)
		oracle.Compile(res)
		tr.end(id)
	}
	tr.end(root)
	return res, time.Since(t0), err
}

func (b *buildLoad) run(window time.Duration, tr *tracer) sample {
	var s sample
	deadline := time.Now().Add(window)
	for i := int64(0); time.Now().Before(deadline); i++ {
		res, d, err := b.build(tr, i)
		if !b.tl.check(err == nil, "build: %v", err) {
			continue
		}
		fp := res.Fingerprint()
		b.tl.check(fp == b.refFP, "build %d fingerprint %016x, first build %016x", i, fp, b.refFP)
		s.lat = append(s.lat, d.Nanoseconds())
		s.work += float64(res.Messages)
		s.workSecs += d.Seconds()
	}
	return s
}

func (b *buildLoad) verify() { verifyEstimates(b.tl, b.ref, b.ref.Graph(), b.sp.Seed) }

// --- drivers: a seeded stream fired at one endpoint ----------------------

// stream is a seeded query stream with the in-process answers of the
// instance that serves it.
type stream struct {
	inst scheme.Instance
	fp   uint64 // inst.Fingerprint(), which digests the whole result on every call
	qs   []oracle.Query
	want []oracle.Answer
}

func newStream(inst scheme.Instance, seed int64, count int) *stream {
	st := &stream{inst: inst, fp: inst.Fingerprint(), want: make([]oracle.Answer, count)}
	st.qs = queryStream(rand.New(rand.NewSource(seed+7477)), inst.Graph().N(), count)
	inst.AnswerInto(st.qs, st.want, 0)
	return st
}

// frameOf maps call i of client c (of n) to a frame offset: each client
// walks its own part of the stream, so clients never share a frame.
func (st *stream) frameOf(c, n, i, frame int) int {
	per := len(st.qs) / frame / n
	return (c*per + i%per) * frame
}

// wireDriver fires frames of a stream at one PDE2 endpoint and checks
// every answer and every generation stamp.
type wireDriver struct {
	tl    *tally
	st    *stream
	frame int
	conns []*wire.Conn
	got   []oracle.Answer
	ress  []wire.Result
}

func dialDriver(tl *tally, st *stream, frame int, addr string, n int) (*wireDriver, error) {
	d := &wireDriver{tl: tl, st: st, frame: frame,
		got: make([]oracle.Answer, len(st.qs)), ress: make([]wire.Result, len(st.qs)/frame)}
	for c := 0; c < n; c++ {
		conn, err := dial(addr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, conn)
	}
	return d, nil
}

func (d *wireDriver) close() {
	for _, c := range d.conns {
		c.Close()
	}
}

// checkFrame is the correctness gate of every estimate frame.
func (d *wireDriver) checkFrame(off int, fp uint64, err error) bool {
	if err == nil && fp == d.st.fp && slices.Equal(d.got[off:off+d.frame], d.st.want[off:off+d.frame]) {
		d.tl.ok()
		return true
	}
	d.tl.fail("frame at %d: err=%v, fingerprint %016x (tables %016x) or wrong answers", off, err, fp, d.st.fp)
	return false
}

// rtt times frames one at a time from every connection for window.
func (d *wireDriver) rtt(window time.Duration, tr *tracer) []int64 {
	return closedLoop(len(d.conns), window, func(c, i int) {
		off := d.st.frameOf(c, len(d.conns), i, d.frame)
		req := int64(c)<<40 | int64(i)
		id := tr.begin("frame", -1, req)
		fp, err := d.conns[c].Estimate(d.st.qs[off:off+d.frame], d.got[off:off+d.frame])
		tr.end(id)
		d.checkFrame(off, fp, err)
		if tr.on() && i%64 == 0 {
			refFrame(tr, req, d.st, off, d.frame)
		}
	})
}

// refFrame is the traced pass's in-process twin of one frame: the codec
// work both ends do, then the answer kernel, so the trace shows how much
// of a round trip is neither.
func refFrame(tr *tracer, req int64, st *stream, off, frame int) {
	root := tr.begin("ref.frame", -1, req)
	id := tr.begin("ref.codec", root, req)
	codecRoundTrip(st.qs[off:off+frame], st.want[off:off+frame])
	tr.end(id)
	id = tr.begin("ref.answer", root, req)
	st.inst.AnswerInto(st.qs[off:off+frame], make([]oracle.Answer, frame), 1)
	tr.end(id)
	tr.end(root)
}

// codecRoundTrip does the PDE2 encoding and decoding one frame costs on
// both ends together.
func codecRoundTrip(qs []oracle.Query, answers []oracle.Answer) {
	qbuf := make([]byte, wire.QueryPayloadLen(len(qs)))
	abuf := make([]byte, wire.AnswersPayloadLen(len(qs)))
	wire.PutQueryPayload(qbuf, qs)
	wire.PutAnswersPrefix(abuf, 0, len(qs))
	var a oracle.Answer
	for i := range qs {
		_ = wire.QueryAt(qbuf, i)
		wire.PutAnswerAt(abuf, i, answers[i])
		_ = wire.AnswerAt(abuf, i, &a) // cannot fail: abuf was encoded just above
	}
}

// passes keeps depth frames in flight on the first connection for
// window, one pass over the stream after another. It returns each
// pass's duration; checking the answers is outside that time.
func (d *wireDriver) passes(depth int, window time.Duration, tr *tracer) []int64 {
	p, err := d.conns[0].NewPipeline(depth)
	if !d.tl.check(err == nil, "pipeline: %v", err) {
		return nil
	}
	var lat []int64
	deadline := time.Now().Add(window)
	for i := int64(0); time.Now().Before(deadline); i++ {
		clear(d.got)
		id := tr.begin("pass", -1, i)
		t0 := time.Now()
		var err error
		for k, off := 0, 0; off < len(d.st.qs) && err == nil; k, off = k+1, off+d.frame {
			err = p.Estimate(d.st.qs[off:off+d.frame], d.got[off:off+d.frame], &d.ress[k])
		}
		if err == nil {
			err = p.Wait()
		}
		dur := time.Since(t0)
		tr.end(id)
		if !d.tl.check(err == nil, "pipelined pass: %v", err) {
			break
		}
		for k, off := 0, 0; off < len(d.st.qs); k, off = k+1, off+d.frame {
			d.checkFrame(off, d.ress[k].FP, d.ress[k].Err)
		}
		lat = append(lat, dur.Nanoseconds())
	}
	d.tl.check(p.Close() == nil, "pipeline close")
	return lat
}

// httpDriver fires frames of a stream at /v1/estimate.
type httpDriver struct {
	tl    *tally
	st    *stream
	frame int
	cls   []*server.Client
}

func newHTTPDriver(tl *tally, st *stream, frame int, baseURL string, n int) *httpDriver {
	d := &httpDriver{tl: tl, st: st, frame: frame}
	for c := 0; c < n; c++ {
		d.cls = append(d.cls, client(baseURL))
	}
	return d
}

func (d *httpDriver) close() {
	for _, cl := range d.cls {
		cl.HTTP.CloseIdleConnections()
	}
}

// rtt times requests one at a time from every client for window.
func (d *httpDriver) rtt(window time.Duration, asJSON bool, tr *tracer) []int64 {
	want := fmt.Sprintf("%016x", d.st.fp)
	return closedLoop(len(d.cls), window, func(c, i int) {
		off := d.st.frameOf(c, len(d.cls), i, d.frame)
		req := int64(c)<<40 | int64(i)
		id := tr.begin("http.estimate", -1, req)
		got, fp, err := d.cls[c].Estimate(context.Background(), d.st.qs[off:off+d.frame], asJSON)
		tr.end(id)
		d.tl.check(err == nil && fp == want && len(got) == d.frame && slices.Equal(got, d.st.want[off:off+d.frame]),
			"request at %d: err=%v, fingerprint %s (tables %s) or wrong answers", off, err, fp, want)
		if tr.on() && i%64 == 0 {
			refFrame(tr, req, d.st, off, d.frame)
		}
	})
}

// sum adds up a sample of durations, in seconds.
func sum(lat []int64) float64 {
	var t int64
	for _, l := range lat {
		t += l
	}
	return float64(t) / 1e9
}

// --- serve-bulk, serve-small, serve-relay, serve-http --------------------

// serveLoad fires a seeded estimate stream at APSP tables.
type serveLoad struct {
	sp     scheme.Spec
	tl     *tally
	frame  int  // queries per frame
	stream int  // queries in the seeded stream, a multiple of frame
	relay  bool // PDE2 through a coordinator's relay over two daemons
	http   bool // JSON /v1/estimate in place of PDE2
	// rtt times frames one at a time on one connection: a single caller,
	// so the round trip is the unloaded one and does not queue behind
	// another client for the two cores (two callers made it vary by a
	// third between runs). depth > 0 adds (or, without rtt, is) a phase
	// that keeps depth frames in flight and times whole passes over the
	// stream.
	rtt   bool
	depth int

	inst scheme.Instance
	d    *daemon
	f    *fleet
	wd   *wireDriver
	hd   *httpDriver
}

func (s *serveLoad) served() scheme.Instance { return s.inst }
func (s *serveLoad) prepare() error          { return nil }

func (s *serveLoad) setup() (err error) {
	if s.inst, err = scheme.Build(s.sp); err != nil {
		return err
	}
	st := newStream(s.inst, s.sp.Seed, s.stream)
	var addr string
	if s.relay {
		if s.f, err = bootFleet(s.sp, s.inst, 2); err != nil {
			return err
		}
		addr = s.f.relay.Addr()
	} else {
		if s.d, err = bootDaemon(s.sp, s.inst); err != nil {
			return err
		}
		addr = s.d.wire.Addr()
	}
	// Warm-up: the whole stream once.
	if s.http {
		s.hd = newHTTPDriver(s.tl, st, s.frame, s.d.http.url, 1)
		for off := 0; off < s.stream; off += s.frame {
			if _, _, err := s.hd.cls[0].Estimate(context.Background(), st.qs[off:off+s.frame], true); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
	if s.wd, err = dialDriver(s.tl, st, s.frame, addr, 1); err != nil {
		return err
	}
	for off := 0; off < s.stream; off += s.frame {
		if _, err := s.wd.conns[0].Estimate(st.qs[off:off+s.frame], s.wd.got[off:off+s.frame]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (s *serveLoad) teardown() {
	if s.wd != nil {
		s.wd.close()
	}
	if s.hd != nil {
		s.hd.close()
	}
	if s.d != nil {
		s.d.close()
	}
	if s.f != nil {
		s.f.close()
	}
	s.wd, s.hd, s.d, s.f = nil, nil, nil, nil
}

func (s *serveLoad) run(window time.Duration, tr *tracer) sample {
	var out sample
	if s.http {
		t0 := time.Now()
		out.lat = s.hd.rtt(window, true, tr)
		out.work, out.workSecs = float64(len(out.lat)*s.frame), time.Since(t0).Seconds()
		return out
	}
	if s.rtt {
		d := window
		if s.depth > 0 {
			d /= 2
		}
		t0 := time.Now()
		out.lat = s.wd.rtt(d, tr)
		out.work, out.workSecs = float64(len(out.lat)*s.frame), time.Since(t0).Seconds()
		window -= d
	}
	if s.depth > 0 {
		lat := s.wd.passes(s.depth, window, tr)
		out.work, out.workSecs = float64(len(lat)*s.stream), sum(lat)
		if !s.rtt {
			out.lat = lat
		}
	}
	return out
}

func (s *serveLoad) verify() { verifyEstimates(s.tl, s.inst, s.inst.Graph(), s.sp.Seed) }

// --- churn-mixed --------------------------------------------------------

// churnLoad reweights a few edges at a time through /v1/update, back to back, while
// one PDE2 reader keeps asking the same shard for estimates.
type churnLoad struct {
	sp    scheme.Spec
	tl    *tally
	frame int

	d      *daemon
	cl     *server.Client
	conn   *wire.Conn
	first  scheme.Instance // generation 0
	mirror *graph.Graph    // client-side copy of the served graph
	edges  []graph.Change  // mirror's edges as reweights to their current weight
	rng    *rand.Rand
	gens   map[uint64]bool // every generation the daemon published
	st     *stream         // the reader's queries and generation 0's answers

	// What the reader saw: every fingerprint, and the last frame whole.
	seen    map[uint64]bool
	lastOff int
	lastFP  uint64
	lastGot []oracle.Answer
	twin    scheme.Instance // traced pass only: in-process copy updated in step
}

func (c *churnLoad) served() scheme.Instance { return c.first }

func (c *churnLoad) setup() (err error) {
	if c.first, err = scheme.Build(c.sp); err != nil {
		return err
	}
	if c.d, err = bootDaemon(c.sp, c.first); err != nil {
		return err
	}
	if c.conn, err = dial(c.d.wire.Addr()); err != nil {
		return err
	}
	c.cl = client(c.d.http.url)
	c.mirror = c.first.Graph()
	c.edges = edgeList(c.mirror)
	c.rng = rand.New(rand.NewSource(c.sp.Seed + 9091))
	c.st = newStream(c.first, c.sp.Seed, 64*c.frame)
	c.gens = map[uint64]bool{c.st.fp: true}
	c.seen = map[uint64]bool{}
	c.twin = c.first
	c.lastGot = make([]oracle.Answer, c.frame)
	// Warm-up: one frame and one update, so neither path is cold.
	if _, err := c.conn.Estimate(c.st.qs[:c.frame], c.lastGot); err != nil {
		return fmt.Errorf("warm-up frame: %w", err)
	}
	if _, _, err := c.update(nil, 0); err != nil {
		return fmt.Errorf("warm-up update: %w", err)
	}
	return nil
}

func (c *churnLoad) prepare() error { return nil }

func (c *churnLoad) teardown() {
	if c.conn != nil {
		c.conn.Close()
	}
	if c.cl != nil {
		c.cl.HTTP.CloseIdleConnections()
	}
	if c.d != nil {
		c.d.close()
	}
	c.conn, c.cl, c.d = nil, nil, nil
}

// churnBatch is the number of edges one update reweights. A single
// edge touches between one and six rounding instances, so few distinct
// costs that the median update time jumped by a third from seed to seed;
// four edges touch five or six nearly always. Even so an update's time
// varies twofold with the instances it hits, which is why the spec is
// small (h=16, sigma=8): some 190 updates fit a window, where the 60 of
// h=32, sigma=12 left the update time spread 0.17-0.20 over ten seeds.
const churnBatch = 4

// update sends one batch of seeded single-edge ±1 reweights, each on a
// different edge, and applies the same changes to the mirror. It returns
// the round trip of the request alone and the number of rounding
// instances the daemon re-detected for it.
func (c *churnLoad) update(tr *tracer, req int64) (d time.Duration, rebuilt int, err error) {
	picked := map[int]bool{}
	var changes []graph.Change
	var sent []server.WireChange
	for len(changes) < min(churnBatch, len(c.edges)) {
		k := c.rng.Intn(len(c.edges))
		if picked[k] {
			continue
		}
		picked[k] = true
		ch := nudge(c.edges[k], c.sp.MaxW, c.rng)
		c.edges[k] = ch
		changes = append(changes, ch)
		sent = append(sent, server.WireChange{Op: "reweight", U: ch.U, V: ch.V, W: ch.W})
	}
	id := tr.begin("update", -1, req)
	t0 := time.Now()
	resp, err := c.cl.Update(context.Background(), server.UpdateRequest{Changes: sent})
	d = time.Since(t0)
	tr.end(id)
	if err != nil {
		return d, 0, err
	}
	fp, err := strconv.ParseUint(resp.NewFingerprint, 16, 64)
	if err != nil {
		return d, 0, fmt.Errorf("update answered fingerprint %q", resp.NewFingerprint)
	}
	c.gens[fp] = true

	root := tr.begin("ref.update", -1, req)
	id = tr.begin("graph.apply_changes", root, req)
	g2, _, err := c.mirror.ApplyChanges(changes)
	tr.end(id)
	if err == nil && tr.on() {
		id = tr.begin("scheme.update", root, req)
		c.twin, _, err = scheme.Update(c.twin, g2, scheme.UpdateOptions{})
		tr.end(id)
	}
	tr.end(root)
	if err == nil && tr.on() {
		if twin := c.twin.Fingerprint(); twin != fp {
			err = fmt.Errorf("daemon published %016x, in-process update of the mirror gives %016x", fp, twin)
		}
	}
	if err != nil {
		return d, 0, fmt.Errorf("mirror: %w", err)
	}
	c.mirror = g2
	return d, resp.InstancesRebuilt, nil
}

// run counts as work the rounding instances the updates re-detected, per
// second of update time. The reader's own rate is not reported: while a
// patch keeps both cores busy it is whatever the scheduler leaves over,
// and it moved by half between the parts of one window. Its frames are
// checked all the same, and the traced pass reports a reader beside
// updates as server.churn_reader_qps and server.swap_read_stall_max_us.
func (c *churnLoad) run(window time.Duration, tr *tracer) sample {
	var s sample
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the reader
		defer wg.Done()
		frames := len(c.st.qs) / c.frame
		for i := 0; time.Now().Before(deadline); i++ {
			off := (i % frames) * c.frame
			var id int
			if i%64 == 0 {
				id = tr.begin("frame", -1, int64(i))
			}
			fp, err := c.conn.Estimate(c.st.qs[off:off+c.frame], c.lastGot)
			if i%64 == 0 {
				tr.end(id)
			}
			ok := err == nil
			if ok && fp == c.st.fp {
				ok = slices.Equal(c.lastGot, c.st.want[off:off+c.frame])
			}
			if c.tl.check(ok, "reader frame at %d: err=%v or wrong generation-0 answers", off, err) {
				c.seen[fp] = true
				c.lastOff, c.lastFP = off, fp
			}
		}
	}()
	for i := int64(1); time.Now().Before(deadline); i++ {
		d, rebuilt, err := c.update(tr, i)
		if c.tl.check(err == nil, "update %d: %v", i, err) {
			s.lat = append(s.lat, d.Nanoseconds())
			s.work += float64(rebuilt)
			s.workSecs += d.Seconds()
		}
	}
	wg.Wait()
	return s
}

// verify checks what could not be checked while the tables moved: every
// fingerprint the reader saw was published, the live tables equal a cold
// build of the mirror, and the reader's last frame equals that build's
// answers.
func (c *churnLoad) verify() {
	for fp := range c.seen {
		c.tl.check(c.gens[fp], "reader saw fingerprint %016x, which no update published", fp)
	}
	cold, err := scheme.BuildOn(c.sp, c.mirror)
	if !c.tl.check(err == nil, "cold build of the mirror: %v", err) {
		return
	}
	coldFP := cold.Fingerprint()
	_, live, err := c.conn.Bind(shardName)
	c.tl.check(err == nil && live == coldFP, "live tables %016x (err=%v), cold build of the mirror %016x", live, err, coldFP)
	if c.lastFP == coldFP {
		want := make([]oracle.Answer, c.frame)
		cold.AnswerInto(c.st.qs[c.lastOff:c.lastOff+c.frame], want, 0)
		c.tl.check(slices.Equal(c.lastGot, want), "reader's last frame differs from the cold build's answers")
	}
	verifyEstimates(c.tl, cold, c.mirror, c.sp.Seed)
}

// --- aggregate-mix ------------------------------------------------------

// Shape of the aggregate-mix requests.
const (
	routePairs = 16  // pairs per /v1/route request, half hot and half cold
	hotPairs   = 512 // the hot set the route LRU (capacity 4096) can hold
	setA, setB = 32, 64
)

// aggLoad drives the expensive-estimate endpoints of a compact instance:
// one client expands routes, one evaluates set distances.
type aggLoad struct {
	sp       scheme.Spec
	tl       *tally
	requests int // distinct requests of each kind, cycled

	d   *daemon
	cls []*server.Client
	ref scheme.Instance

	routeReqs [][]server.WirePair
	routeWant [][]graph.Weight // expected weight, -1 for undeliverable
	setReqs   [][2][]int32
	setWant   []*setdist.Result
}

func (a *aggLoad) served() scheme.Instance { return a.ref }

func (a *aggLoad) setup() (err error) {
	if a.d, err = bootDaemon(a.sp, nil); err != nil {
		return err
	}
	a.cls = []*server.Client{client(a.d.http.url), client(a.d.http.url)}
	if a.routeReqs == nil {
		if err := a.generate(); err != nil {
			return err
		}
	}
	// Warm-up: every hot pair once, so the route cache is full, and a
	// few set distances.
	for i := 0; i < len(a.routeReqs) && i < 2*hotPairs/routePairs; i++ {
		if _, err := a.cls[0].Route(context.Background(), a.routeReqs[i]); err != nil {
			return fmt.Errorf("warm-up route: %w", err)
		}
	}
	for i := 0; i < len(a.setReqs) && i < 16; i++ {
		if _, err := a.cls[1].SetDist(context.Background(), a.setReqs[i][0], a.setReqs[i][1], false, true); err != nil {
			return fmt.Errorf("warm-up setdist: %w", err)
		}
	}
	return nil
}

// generate makes the request lists from the seed. Request i carries hot
// pairs i·8 … i·8+7 (mod the hot set) and 8 pairs uniform over n².
func (a *aggLoad) generate() error {
	rng := rand.New(rand.NewSource(a.sp.Seed + 4243))
	g, err := a.sp.BuildGraph()
	if err != nil {
		return err
	}
	n := g.N()
	pair := func() server.WirePair {
		return server.WirePair{From: int32(rng.Intn(n)), To: int32(rng.Intn(n))}
	}
	hot := make([]server.WirePair, hotPairs)
	for i := range hot {
		hot[i] = pair()
	}
	a.routeReqs = make([][]server.WirePair, a.requests)
	for i := range a.routeReqs {
		req := make([]server.WirePair, routePairs)
		for j := range req {
			if j%2 == 0 {
				req[j] = hot[(i*routePairs/2+j/2)%hotPairs]
			} else {
				req[j] = pair()
			}
		}
		a.routeReqs[i] = req
	}
	a.setReqs = sets(rng, n, a.requests)
	return nil
}

func (a *aggLoad) prepare() (err error) {
	if a.ref, err = scheme.Build(a.sp); err != nil {
		return err
	}
	a.routeWant = make([][]graph.Weight, len(a.routeReqs))
	for i, req := range a.routeReqs {
		a.routeWant[i] = make([]graph.Weight, len(req))
		for j, p := range req {
			a.routeWant[i][j] = -1
			if rt, err := a.ref.Route(int(p.From), p.To); err == nil {
				a.routeWant[i][j] = rt.Weight
			}
		}
	}
	a.setWant = make([]*setdist.Result, len(a.setReqs))
	for i, req := range a.setReqs {
		if a.setWant[i], err = setdist.Eval(a.ref, req[0], req[1], setdist.Options{Naive: true}); err != nil {
			return err
		}
	}
	return nil
}

func (a *aggLoad) teardown() {
	for _, cl := range a.cls {
		cl.HTTP.CloseIdleConnections()
	}
	if a.d != nil {
		a.d.close()
	}
	a.d, a.cls = nil, nil
}

// sameAggregates compares one served direction with the in-process one
// under the JSON wire's convention for infinities.
func sameAggregates(got server.WireAggregates, want setdist.Aggregates) bool {
	if got.Finite != want.Finite() || got.Members != want.Members || got.Unreachable != want.Unreachable {
		return false
	}
	return !got.Finite || (got.Chamfer == want.Chamfer && got.Hausdorff == want.Hausdorff && got.MeanMin == want.MeanMin)
}

// route sends route request i over cl and checks every expansion.
func (a *aggLoad) route(cl *server.Client, i int, fp string) (routes int) {
	k := i % len(a.routeReqs)
	resp, err := cl.Route(context.Background(), a.routeReqs[k])
	ok := err == nil && resp.Fingerprint == fp && len(resp.Routes) == len(a.routeReqs[k])
	for j := 0; ok && j < len(resp.Routes); j++ {
		r, want := resp.Routes[j], a.routeWant[k][j]
		ok = r.OK == (want >= 0) && (!r.OK || r.Weight == want)
	}
	if a.tl.check(ok, "route request %d: err=%v or an expansion differs from the in-process route", k, err) {
		return len(resp.Routes)
	}
	return 0
}

// setDist sends set-distance request i over cl, pruned or naive, and
// checks the aggregates bit for bit against the in-process naive ones.
func (a *aggLoad) setDist(cl *server.Client, i int, fp string, naive bool) *server.SetDistResponse {
	k := i % len(a.setReqs)
	resp, err := cl.SetDist(context.Background(), a.setReqs[k][0], a.setReqs[k][1], naive, true)
	want := a.setWant[k]
	ok := err == nil && resp.Fingerprint == fp && sameAggregates(resp.AB, want.AB) && sameAggregates(resp.BA, want.BA) && resp.Pairs == want.Pairs
	a.tl.check(ok, "setdist request %d (naive=%v): err=%v or aggregates differ from the in-process naive evaluation", k, naive, err)
	return resp
}

func (a *aggLoad) run(window time.Duration, tr *tracer) sample {
	var s sample
	fp := fmt.Sprintf("%016x", a.ref.Fingerprint())
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the route client
		defer wg.Done()
		t0 := time.Now()
		for i := 0; time.Now().Before(deadline); i++ {
			id := tr.begin("route", -1, int64(i))
			s.work += float64(a.route(a.cls[0], i, fp))
			tr.end(id)
			if tr.on() && i%16 == 0 {
				k := i % len(a.routeReqs)
				id := tr.begin("ref.route", -1, int64(i))
				for _, p := range a.routeReqs[k] {
					_, _ = a.ref.Route(int(p.From), p.To) // timed for the trace; prepare already checked it
				}
				tr.end(id)
			}
		}
		s.workSecs = time.Since(t0).Seconds()
	}()
	for i := 0; time.Now().Before(deadline); i++ {
		id := tr.begin("setdist", -1, int64(i))
		t0 := time.Now()
		a.setDist(a.cls[1], i, fp, false)
		s.lat = append(s.lat, time.Since(t0).Nanoseconds())
		tr.end(id)
		if tr.on() && i%16 == 0 {
			k := i % len(a.setReqs)
			id := tr.begin("ref.eval", -1, int64(i))
			_, _ = setdist.Eval(a.ref, a.setReqs[k][0], a.setReqs[k][1], setdist.Options{}) // as above
			tr.end(id)
		}
	}
	wg.Wait()
	return s
}

func (a *aggLoad) verify() {
	verifyEstimates(a.tl, a.ref, a.ref.Graph(), a.sp.Seed)
	// Routes must keep the scheme's stretch bound (+o(1), as the repo's
	// own stretch test allows).
	bound := a.ref.Accounting().StretchBound + 0.5
	rng := rand.New(rand.NewSource(a.sp.Seed + 5051))
	n := a.ref.Graph().N()
	for i := 0; i < 16; i++ {
		v := rng.Intn(n)
		exact := graph.Dijkstra(a.ref.Graph(), v)
		for j := 0; j < 16; j++ {
			s := int32(rng.Intn(n))
			if int(s) == v {
				continue
			}
			rt, err := a.ref.Route(v, s)
			a.tl.check(err == nil && graph.Stretch(rt.Weight, exact.Dist[s]) <= bound,
				"route %d->%d: err=%v or stretch above %.1f", v, s, err, bound)
		}
	}
}

// verifyEstimates samples 4096 estimates of inst and holds each against
// the exact distance on g: never below it, and for full APSP tables
// never above (1+ε) times it. Partial tables bound only the sources
// within h hops and a compact scheme bounds routes, not estimates, so
// there only the lower bound is checked.
func verifyEstimates(tl *tally, inst scheme.Instance, g *graph.Graph, seed int64) {
	rng := rand.New(rand.NewSource(seed + 6067))
	sp := inst.Spec()
	upper := 0.0
	if sp.Scheme == "oracle" && sp.H == 0 && sp.Sigma == 0 {
		upper = 1 + sp.Eps
	}
	const eps = 1e-9
	n := g.N()
	qs := make([]oracle.Query, 128)
	out := make([]oracle.Answer, len(qs))
	for i := 0; i < 32; i++ {
		v := rng.Intn(n)
		exact := graph.Dijkstra(g, v)
		for j := range qs {
			qs[j] = oracle.Query{V: int32(v), S: int32(rng.Intn(n))}
		}
		inst.AnswerInto(qs, out, 1)
		for j, a := range out {
			if !a.OK {
				tl.check(upper == 0, "estimate %d->%d missing from full APSP tables", v, qs[j].S)
				continue
			}
			wd := float64(exact.Dist[qs[j].S])
			ok := a.Est.Dist >= wd*(1-eps) && (upper == 0 || a.Est.Dist <= upper*wd*(1+eps))
			tl.check(ok, "estimate %d->%d = %g, exact distance %g", v, qs[j].S, a.Est.Dist, wd)
		}
	}
}

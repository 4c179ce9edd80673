package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pde/internal/baseline"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/detection"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"
	"pde/internal/server"
	"pde/internal/setdist"
	"pde/internal/wire"
)

// measureTraced is the traced pass: the workload's own loop for a quarter
// window untraced and a quarter traced (their difference is the tracing
// overhead), then every layer probed from outside, through its public
// functions, on the workload's own graph and tables.
func measureTraced(w *workloadDef, o options) (*result, error) {
	tl := &tally{}
	ld := w.make(o, tl)
	defer ld.teardown()
	if err := ld.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if err := ld.prepare(); err != nil {
		return nil, fmt.Errorf("%s: reference answers: %w", w.name, err)
	}
	quarter := time.Duration(o.seconds / 4 * float64(time.Second))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := ld.run(quarter, nil)
	runtime.ReadMemStats(&m1)
	// The yardstick, timed as the untraced run times it: after a stretch
	// of the workload and a forced collection.
	yard := newYardstick()
	yard.time() // its own warm-up
	timeYard := func() float64 {
		runtime.GC()
		return yard.time().Seconds() * 1e3
	}
	yardMS := timeYard()
	tr := newTracer()
	traced := ld.run(quarter, tr)
	yardMS = (yardMS + timeYard()) / 2
	ld.verify()
	if len(plain.lat) == 0 || len(traced.lat) == 0 {
		return nil, fmt.Errorf("%s: a quarter window completed no operation", w.name)
	}
	inst := ld.served()
	ld.teardown()

	p := &probes{tl: tl, o: o, inst: inst, out: map[string]float64{},
		slice: time.Duration(o.seconds / 2 / probeSlices * float64(time.Second))}
	if err := p.all(); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	p.out["ref.yardstick_ms"] = yardMS
	p.out["op.samples"] = float64(len(plain.lat))
	p.out["op.p50_us"] = float64(percentile(plain.lat, 0.5)) / 1e3
	p.out["op.p99_us"] = float64(percentile(plain.lat, 0.99)) / 1e3
	p.out["op.max_us"] = float64(percentile(plain.lat, 1)) / 1e3
	p.out["proc.mallocs_per_op"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(plain.lat)))
	p.out["trace.overhead_frac"] = midmean(traced.lat)/midmean(plain.lat) - 1
	p.out["trace.accounted_frac"] = accounted(tr.spans)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.out["proc.gc_pause_total_ms"] = float64(ms.PauseTotalNs) / 1e6
	p.out["proc.peak_rss_mb"] = peakRSSMB()
	if err := tr.write("bench-out", w.name); err != nil {
		return nil, err
	}
	return finish(tl, p.out, perLayer), nil
}

// accounted is the share of the parent spans whose children are the
// layers they call (build, ref.update, ref.frame) that those children
// cover; 1 when the workload records none of them.
func accounted(spans []span) float64 {
	var total, child int64
	for name, s := range summarize(spans) {
		if name == "build" || name == "ref.update" || name == "ref.frame" {
			total += s.TotalNS
			child += s.ChildNS
		}
	}
	if total == 0 {
		return 1
	}
	return float64(child) / float64(total)
}

// probeSlices is how many timed probe loops share half of the window.
const probeSlices = 24

// probes measures every layer on one workload's inputs.
type probes struct {
	tl    *tally
	o     options
	inst  scheme.Instance // what the workload built or served
	slice time.Duration   // length of one timed probe loop
	out   map[string]float64

	orc    *scheme.OracleInstance // oracle tables on the workload's graph, made by buildSide
	change graph.Change           // the reweight core.Patch and scheme.Update were timed on
	bulk   int                    // queries per bulk frame
	count  int                    // queries in the probe stream
}

// timeIt is f's wall time in seconds.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// repeat calls f until the slice is used up and returns calls and seconds.
func (p *probes) repeat(f func()) (calls int, secs float64) {
	t0 := time.Now()
	for time.Since(t0) < p.slice {
		f()
		calls++
	}
	return calls, time.Since(t0).Seconds()
}

// medianUS is the median of up to 32 timings of f(i), in microseconds.
func medianUS(n int, f func(i int)) float64 {
	lat := make([]int64, min(n, 32))
	for i := range lat {
		t0 := time.Now()
		f(i)
		lat[i] = time.Since(t0).Nanoseconds()
	}
	return float64(percentile(lat, 0.5)) / 1e3
}

// mallocs is the number of heap allocations f made, whole process.
func mallocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func (p *probes) all() error {
	p.bulk = size(p.o, 16384, 256)
	p.count = size(p.o, 65536, 2048)
	steps := []func() error{p.buildSide, p.schemeSide, p.setdistSide, p.wireSide, p.serverSide, p.clusterSide, p.updateSide}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// reweight draws one seeded single-edge ±1 reweight of g.
func reweight(g *graph.Graph, maxW graph.Weight, rng *rand.Rand) graph.Change {
	edges := edgeList(g)
	return nudge(edges[rng.Intn(len(edges))], maxW, rng)
}

// buildSide probes graph, congest, detection, core and oracle by making
// the workload's tables again, layer by layer. A compact workload has no
// single PDE run, so there the probe builds partial oracle tables on the
// same graph.
func (p *probes) buildSide() error {
	sp := p.inst.Spec()
	if sp.Scheme != "oracle" {
		sp = scheme.Spec{Topology: sp.Topology, N: sp.N, Eps: sp.Eps, MaxW: sp.MaxW, Seed: sp.Seed, H: size(p.o, 16, 4), Sigma: size(p.o, 8, 4)}
	}
	sp = sp.Normalized()
	rng := rand.New(rand.NewSource(sp.Seed + 1013))
	var g *graph.Graph
	var err error
	p.out["graph.generate_s"] = timeIt(func() { g, err = sp.BuildGraph() })
	if err != nil {
		return err
	}
	p.out["graph.dijkstra_us"] = medianUS(32, func(int) { graph.Dijkstra(g, rng.Intn(g.N())) })
	ch := reweight(g, sp.MaxW, rng)
	var g2 *graph.Graph
	p.out["graph.apply_changes_us"] = medianUS(32, func(int) { g2, _, err = g.ApplyChanges([]graph.Change{ch}) })
	if err != nil {
		return err
	}

	cfg := congest.Config{Parallel: true}
	pg, err := graph.Generate(sp.Topology, size(p.o, 96, 24), sp.MaxW, rand.New(rand.NewSource(sp.Seed+1019)))
	if err != nil {
		return err
	}
	var fr *baseline.FloodResult
	var secs float64
	allocs := mallocs(func() { secs = timeIt(func() { fr, err = baseline.FloodingAPSP(pg, cfg) }) })
	if err != nil {
		return err
	}
	p.out["congest.rounds"] = float64(fr.Metrics.ActiveRounds)
	p.out["congest.messages"] = float64(fr.Metrics.Messages)
	p.out["congest.ns_per_message"] = ratio(secs*1e9, float64(fr.Metrics.Messages))
	p.out["congest.ns_per_round"] = ratio(secs*1e9, float64(fr.Metrics.ActiveRounds))
	p.out["congest.allocs_per_round"] = ratio(allocs, float64(fr.Metrics.ActiveRounds))

	params := sp.Params(g.N())
	var det *detection.Result
	allocs = mallocs(func() {
		secs = timeIt(func() {
			det, err = detection.Run(g, detection.Params{IsSource: params.IsSource, H: params.H, Sigma: params.Sigma, CapMessages: true}, cfg)
		})
	})
	if err != nil {
		return err
	}
	p.out["detection.run_s"] = secs
	p.out["detection.rounds"] = float64(det.Metrics.ActiveRounds)
	p.out["detection.messages"] = float64(det.Metrics.Messages)
	p.out["detection.ns_per_message"] = ratio(secs*1e9, float64(det.Metrics.Messages))
	p.out["detection.allocs_per_round"] = ratio(allocs, float64(det.Metrics.ActiveRounds))

	var res *core.Result
	allocs = mallocs(func() { secs = timeIt(func() { res, err = core.Run(g, params, cfg) }) })
	if err != nil {
		return err
	}
	p.out["core.run_s"] = secs
	p.out["core.instances"] = float64(len(res.Instances))
	p.out["core.active_rounds"] = float64(res.ActiveRounds)
	p.out["core.budget_rounds"] = float64(res.BudgetRounds)
	p.out["core.round_utilization"] = ratio(float64(res.ActiveRounds), float64(res.BudgetRounds))
	p.out["core.messages"] = float64(res.Messages)
	p.out["core.message_bits"] = float64(res.MessageBits)
	p.out["core.ns_per_message"] = ratio(secs*1e9, float64(res.Messages))
	p.out["core.allocs_per_build"] = allocs
	p.out["core.affected_us"] = medianUS(8, func(int) { core.AffectedInstances(g2, res) })
	// The patched result is not checked here: churn-mixed holds every
	// patched generation against a cold build of its mirror.
	var ps core.PatchStats
	p.out["core.patch_s"] = timeIt(func() { _, ps, err = core.Patch(g2, cfg, res) })
	if err != nil {
		return err
	}
	p.out["core.patch_rebuilt_frac"] = ps.Damage()

	// Compile alone, then the scheme's wrapping of it; medians of three,
	// since their difference is a few milliseconds.
	var o *oracle.Oracle
	compile, whole := make([]float64, 3), make([]float64, 3)
	for i := range compile {
		compile[i] = timeIt(func() { o = oracle.Compile(res) })
		whole[i] = timeIt(func() { p.orc, err = scheme.NewOracleInstance(sp, g, res, 0) })
		if err != nil {
			return err
		}
	}
	p.out["oracle.compile_s"] = medianF(compile)
	p.out["oracle.bytes"] = float64(o.Bytes())
	p.out["oracle.entries"] = float64(o.Entries())
	p.out["scheme.build_overhead_s"] = medianF(whole) - medianF(compile)
	if p.inst.Scheme() == "oracle" {
		p.tl.check(res.Fingerprint() == p.inst.Fingerprint(), "layer-by-layer build gives %016x, scheme.Build gave %016x", res.Fingerprint(), p.inst.Fingerprint())
	}
	p.change = ch
	p.out["scheme.update_s"] = timeIt(func() { _, _, err = scheme.Update(p.orc, g2, scheme.UpdateOptions{}) })
	if err != nil {
		return err
	}

	// One shared seeded random stream through the four answer paths.
	qs := queryStream(rng, g.N(), p.count)
	want := make([]oracle.Answer, len(qs))
	out := make([]oracle.Answer, len(qs))
	for i, q := range qs {
		want[i].Est, want[i].OK = o.Estimate(int(q.V), q.S)
	}
	perQuery := func(f func()) float64 {
		calls, secs := p.repeat(f)
		p.tl.check(slices.Equal(out, want), "an oracle answer path differs from Oracle.Estimate")
		return secs * 1e9 / float64(calls*len(qs))
	}
	p.out["oracle.estimate_ns"] = perQuery(func() {
		for i, q := range qs {
			out[i].Est, out[i].OK = o.Estimate(int(q.V), q.S)
		}
	})
	p.out["oracle.answerall_ns"] = perQuery(func() { o.AnswerAll(qs, out) })
	p.out["oracle.answerinto_ns"] = perQuery(func() { o.AnswerInto(qs, out, 0) })
	sort.Slice(qs, func(i, j int) bool {
		return qs[i].V < qs[j].V || (qs[i].V == qs[j].V && qs[i].S < qs[j].S)
	})
	o.AnswerAll(qs, want)
	p.out["oracle.answersorted_ns"] = perQuery(func() { o.AnswerSorted(qs, out) })
	return nil
}

// schemeSide times the two schemes whose answers are not table lookups,
// on side instances of the workload's family.
func (p *probes) schemeSide() error {
	sp := p.inst.Spec()
	side := func(spec scheme.Spec) (answerNS, routeUS float64, err error) {
		inst, err := scheme.Build(spec)
		if err != nil {
			return 0, 0, err
		}
		rng := rand.New(rand.NewSource(spec.Seed + 1021))
		n := inst.Graph().N()
		qs := queryStream(rng, n, 4096)
		out := make([]oracle.Answer, len(qs))
		calls, secs := p.repeat(func() { inst.AnswerInto(qs, out, 1) })
		answerNS = secs * 1e9 / float64(calls*len(qs))
		calls, secs = p.repeat(func() {
			_, _ = inst.Route(rng.Intn(n), int32(rng.Intn(n))) // timed, not checked: pairs may be undeliverable
		})
		return answerNS, secs * 1e6 / float64(calls), nil
	}
	n := size(p.o, 128, 32)
	var err error
	p.out["scheme.compact_answer_ns"], p.out["scheme.compact_route_us"], err = side(
		scheme.Spec{Scheme: "compact", K: 3, Topology: sp.Topology, N: n, Eps: 0.5, MaxW: 8, Seed: sp.Seed})
	if err != nil {
		return err
	}
	p.out["scheme.rtc_answer_ns"], _, err = side(
		scheme.Spec{Scheme: "rtc", K: 2, Topology: sp.Topology, N: n, Eps: 0.5, MaxW: 8, Seed: sp.Seed, SampleProb: 0.25})
	return err
}

func (p *probes) setdistSide() error {
	reqs := sets(rand.New(rand.NewSource(p.o.seed+1031)), p.inst.Graph().N(), 16)
	var issued, pairs int64
	var err error
	eval := func(naive bool) float64 {
		return medianUS(len(reqs), func(i int) {
			res, e := setdist.Eval(p.inst, reqs[i][0], reqs[i][1], setdist.Options{Naive: naive})
			if e != nil {
				err = e
			} else if !naive {
				issued, pairs = issued+res.Evaluated, pairs+res.Pairs
			}
		})
	}
	p.out["setdist.eval_pruned_us"] = eval(false)
	p.out["setdist.eval_naive_us"] = eval(true)
	p.out["setdist.issued_frac"] = ratio(float64(issued), float64(pairs))
	return err
}

// wireSide probes the PDE2 path against one daemon serving the
// workload's instance.
func (p *probes) wireSide() error {
	d, err := bootDaemon(p.inst.Spec(), p.inst)
	if err != nil {
		return err
	}
	defer d.close()
	st := newStream(p.inst, p.o.seed+1, p.count)
	small, err := dialDriver(p.tl, st, 16, d.wire.Addr(), 1)
	if err != nil {
		return err
	}
	defer small.close()
	big, err := dialDriver(p.tl, st, p.bulk, d.wire.Addr(), 1)
	if err != nil {
		return err
	}
	defer big.close()

	small.rtt(p.slice/4, nil) // warm-up
	t0 := time.Now()
	lat := small.rtt(2*p.slice, nil)
	fps := float64(len(lat)) / time.Since(t0).Seconds()
	p.out["wire.frames_per_s_d1"] = fps
	p.out["wire.rtt_p50_us"] = float64(percentile(lat, 0.5)) / 1e3
	p.out["wire.rtt_p99_us"] = float64(percentile(lat, 0.99)) / 1e3
	p.out["wire.rtt_p999_us"] = float64(percentile(lat, 0.999)) / 1e3

	passQPS := func(d *wireDriver, depth int) float64 {
		lat := d.passes(depth, p.slice, nil)
		return ratio(float64(len(lat)*len(st.qs)), sum(lat))
	}
	p.out["wire.frames_per_s_d16"] = passQPS(small, 16) / 16
	p.out["wire.bulk_qps_d1"] = passQPS(big, 1)
	p.out["wire.bulk_qps_d16"] = passQPS(big, 16)

	calls, secs := p.repeat(func() { codecRoundTrip(st.qs[:p.bulk], st.want[:p.bulk]) })
	codec := secs * 1e9 / float64(calls*p.bulk)
	p.out["wire.codec_ns_per_q"] = codec
	out := make([]oracle.Answer, 16)
	calls, secs = p.repeat(func() { p.inst.AnswerInto(st.qs[:16], out, 1) })
	p.out["wire.transport_us"] = p.out["wire.rtt_p50_us"] - (secs*1e9/float64(calls)+16*codec)/1e3

	// Next hops, bulk frames, 4 in flight; every hop is checked against
	// the in-process answer it derives from.
	hops := make([]wire.Hop, len(st.qs))
	pl, err := big.conns[0].NewPipeline(4)
	if err != nil {
		return err
	}
	calls, secs = p.repeat(func() {
		var err error
		for k, off := 0, 0; off < len(st.qs) && err == nil; k, off = k+1, off+p.bulk {
			err = pl.NextHop(st.qs[off:off+p.bulk], hops[off:off+p.bulk], &big.ress[k])
		}
		if err == nil {
			err = pl.Wait()
		}
		p.tl.check(err == nil, "next-hop pass: %v", err)
	})
	p.tl.check(pl.Close() == nil, "pipeline close")
	for i, h := range hops {
		// The hop a daemon derives from the estimate: the node itself at
		// the source, else the estimate's via.
		q, a := st.qs[i], st.want[i]
		want := wire.Hop{Next: -1}
		if q.V == q.S {
			want = wire.Hop{Next: q.V, OK: true}
		} else if a.OK && a.Est.Via >= 0 {
			want = wire.Hop{Next: a.Est.Via, OK: true}
		}
		if !p.tl.check(h == want, "next hop %d is %+v, the in-process estimate gives %+v", i, h, want) {
			break
		}
	}
	p.out["wire.nexthop_qps"] = float64(calls*len(st.qs)) / secs

	const frames = 2000
	conn := small.conns[0]
	p.out["wire.allocs_per_frame"] = mallocs(func() {
		for i := 0; i < frames; i++ {
			off := st.frameOf(0, 1, i, 16)
			fp, err := conn.Estimate(st.qs[off:off+16], small.got[off:off+16])
			small.checkFrame(off, fp, err)
		}
	}) / frames

	pair, err := dialDriver(p.tl, st, 16, d.wire.Addr(), 2)
	if err != nil {
		return err
	}
	defer pair.close()
	p.openLoop(pair, fps/2)
	return nil
}

// openLoop sends 16-query frames on a seeded Poisson schedule at rate
// frames per second, regardless of how the daemon keeps up, and times
// each from the moment it was due. Each connection takes the next due
// frame when it is free, so a stall delays the frames behind it and
// they are charged for the wait.
func (p *probes) openLoop(d *wireDriver, rate float64) {
	rng := rand.New(rand.NewSource(p.o.seed + 1033))
	var due []time.Duration
	for t := 0.0; t < (2 * p.slice).Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	lat, late := make([]int64, len(due)), make([]int64, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range d.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				k := int(next.Add(1)) - 1
				if k >= len(due) {
					return
				}
				if wait := due[k] - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				late[k] = (time.Since(t0) - due[k]).Nanoseconds()
				off := d.st.frameOf(c, len(d.conns), i, d.frame)
				fp, err := d.conns[c].Estimate(d.st.qs[off:off+d.frame], d.got[off:off+d.frame])
				lat[k] = (time.Since(t0) - due[k]).Nanoseconds()
				d.checkFrame(off, fp, err)
			}
		}(c)
	}
	wg.Wait()
	p.out["wire.open_p99_us"] = float64(percentile(lat, 0.99)) / 1e3
	p.out["gen.late_p99_us"] = float64(percentile(late, 0.99)) / 1e3
}

// routable draws a pair the instance can route: any pair for a scheme
// that routes everywhere, a node and a member of its output list for
// oracle tables.
func routable(inst scheme.Instance, rng *rand.Rand) server.WirePair {
	n := inst.Graph().N()
	v := rng.Intn(n)
	if oi, ok := inst.(*scheme.OracleInstance); ok {
		for len(oi.Res.Lists[v]) == 0 {
			v = rng.Intn(n)
		}
		list := oi.Res.Lists[v]
		return server.WirePair{From: int32(v), To: list[rng.Intn(len(list))].Src}
	}
	return server.WirePair{From: int32(v), To: int32(rng.Intn(n))}
}

// serverSide probes the HTTP endpoints of one daemon serving the
// workload's instance.
func (p *probes) serverSide() error {
	d, err := bootDaemon(p.inst.Spec(), p.inst)
	if err != nil {
		return err
	}
	defer d.close()
	ctx := context.Background()
	st := newStream(p.inst, p.o.seed+1, p.count)
	small := newHTTPDriver(p.tl, st, 16, d.http.url, 1)
	defer small.close()
	// Two clients, so that the micro-batcher has requests to coalesce.
	big := newHTTPDriver(p.tl, st, p.bulk, d.http.url, 2)
	defer big.close()

	small.rtt(p.slice/4, true, nil) // warm-up
	lat := small.rtt(p.slice, true, nil)
	p.out["server.http_json_rtt_p50_us"] = float64(percentile(lat, 0.5)) / 1e3
	p.out["server.http_json_rtt_p99_us"] = float64(percentile(lat, 0.99)) / 1e3
	lat = small.rtt(p.slice, false, nil)
	p.out["server.http_bin_rtt_p50_us"] = float64(percentile(lat, 0.5)) / 1e3
	t0 := time.Now()
	lat = big.rtt(p.slice, false, nil)
	p.out["server.http_bin_qps"] = float64(len(lat)*p.bulk) / time.Since(t0).Seconds()

	calls, secs := p.repeat(func() {
		qs, err := server.DecodeQueries(server.EncodeQueries(st.qs[:p.bulk]))
		if err == nil {
			_, err = server.DecodeAnswers(server.EncodeAnswers(st.want[:p.bulk]))
		}
		p.tl.check(err == nil && len(qs) == p.bulk, "PDEQ/PDEA codec round trip: %v", err)
	})
	p.out["server.codec_ns_per_q"] = secs * 1e9 / float64(calls*p.bulk)

	// Routes: a hot set the LRU holds, then pairs never asked before.
	rng := rand.New(rand.NewSource(p.o.seed + 1039))
	cl := small.cls[0]
	hot := make([]server.WirePair, size(p.o, hotPairs, 64))
	for i := range hot {
		hot[i] = routable(p.inst, rng)
	}
	fp := fmt.Sprintf("%016x", p.inst.Fingerprint())
	routes := func(next func() server.WirePair) float64 {
		req := make([]server.WirePair, routePairs)
		calls, secs := p.repeat(func() {
			for i := range req {
				req[i] = next()
			}
			resp, err := cl.Route(ctx, req)
			ok := err == nil && resp.Fingerprint == fp && len(resp.Routes) == len(req)
			for i := 0; ok && i < len(req); i++ {
				ok = resp.Routes[i].OK
			}
			p.tl.check(ok, "route request: err=%v or an undeliverable pair", err)
		})
		return float64(calls*routePairs) / secs
	}
	for i := 0; i < len(hot); i += routePairs { // fill the cache
		if _, err := cl.Route(ctx, hot[i:min(i+routePairs, len(hot))]); err != nil {
			return err
		}
	}
	k := 0
	p.out["server.route_rps_hot"] = routes(func() server.WirePair { k++; return hot[k%len(hot)] })
	p.out["server.route_rps_cold"] = routes(func() server.WirePair { return routable(p.inst, rng) })

	reqs := sets(rng, p.inst.Graph().N(), 16)
	setRTT := func(naive bool) (float64, error) {
		var err error
		us := medianUS(len(reqs), func(i int) {
			if _, e := cl.SetDist(ctx, reqs[i][0], reqs[i][1], naive, true); e != nil {
				err = e
			}
		})
		return us, err
	}
	if p.out["server.setdist_rtt_p50_us"], err = setRTT(false); err != nil {
		return err
	}
	if p.out["server.setdist_naive_rtt_p50_us"], err = setRTT(true); err != nil {
		return err
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	sh := stats.Shards[shardName]
	p.out["server.flushes"] = float64(sh.Batches.Flushes)
	p.out["server.avg_batch"] = sh.Batches.AvgQueries
	p.out["server.route_cache_hit_rate"] = sh.RouteCache.HitRate
	return nil
}

// clusterSide probes the coordinator in front of two daemons that serve
// the workload's instance.
func (p *probes) clusterSide() error {
	f, err := bootFleet(p.inst.Spec(), p.inst, 2)
	if err != nil {
		return err
	}
	defer f.close()
	st := newStream(p.inst, p.o.seed+1, p.count)
	small, err := dialDriver(p.tl, st, 16, f.relay.Addr(), 1)
	if err != nil {
		return err
	}
	defer small.close()
	big, err := dialDriver(p.tl, st, p.bulk, f.relay.Addr(), 1)
	if err != nil {
		return err
	}
	defer big.close()
	small.rtt(p.slice/4, nil) // warm-up
	t0 := time.Now()
	lat := small.rtt(p.slice, nil)
	p.out["cluster.relay_frames_per_s"] = float64(len(lat)) / time.Since(t0).Seconds()
	p.out["cluster.relay_rtt_p50_us"] = float64(percentile(lat, 0.5)) / 1e3
	p.out["cluster.relay_overhead_us"] = p.out["cluster.relay_rtt_p50_us"] - p.out["wire.rtt_p50_us"]
	lat = big.passes(4, p.slice, nil)
	p.out["cluster.relay_bulk_qps"] = ratio(float64(len(lat)*len(st.qs)), sum(lat))
	front := newHTTPDriver(p.tl, st, 16, f.front.url, 1)
	defer front.close()
	front.rtt(p.slice/4, true, nil) // warm-up
	p.out["cluster.http_relay_rtt_p50_us"] = float64(percentile(front.rtt(p.slice, true, nil), 0.5)) / 1e3
	return nil
}

// updateSide sends the reweight scheme.update_s was timed on through
// /v1/update of a daemon over the same oracle tables, so the two differ
// only by what the server adds, then two more, all while one reader
// keeps asking; it records the longest the reader waited for a frame.
func (p *probes) updateSide() error {
	d, err := bootDaemon(p.orc.Spec(), p.orc)
	if err != nil {
		return err
	}
	defer d.close()
	conn, err := dial(d.wire.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	cl := client(d.http.url)
	defer cl.HTTP.CloseIdleConnections()

	rng := rand.New(rand.NewSource(p.o.seed + 1049))
	qs := queryStream(rng, p.orc.Graph().N(), 16)
	out := make([]oracle.Answer, len(qs))
	stop := make(chan struct{})
	var stall, frames int64
	var wg sync.WaitGroup
	wg.Add(1)
	began := time.Now()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			_, err := conn.Estimate(qs, out)
			stall = max(stall, time.Since(t0).Nanoseconds())
			frames++
			if !p.tl.check(err == nil, "reader beside updates: %v", err) {
				return
			}
		}
	}()
	g, ch := p.orc.Graph(), p.change
	for i := 0; i < 3 && err == nil; i++ {
		t0 := time.Now()
		_, err = cl.Update(context.Background(), server.UpdateRequest{
			Changes: []server.WireChange{{Op: "reweight", U: ch.U, V: ch.V, W: ch.W}}})
		if i == 0 {
			p.out["server.update_s"] = time.Since(t0).Seconds()
		}
		if err == nil {
			if g, _, err = g.ApplyChanges([]graph.Change{ch}); err == nil {
				ch = reweight(g, p.orc.Spec().MaxW, rng)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	p.out["server.churn_reader_qps"] = float64(frames*int64(len(qs))) / time.Since(began).Seconds()
	p.out["server.update_overhead_s"] = p.out["server.update_s"] - p.out["scheme.update_s"]
	p.out["server.swap_read_stall_max_us"] = float64(stall) / 1e3
	return nil
}

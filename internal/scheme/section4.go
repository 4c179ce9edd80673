package scheme

import (
	"math"

	"pde/internal/compact"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/par"
	"pde/internal/rtc"
)

// hier is the serving half of the two §4 backends — per-node tables plus
// a destination label, answered one query at a time — written once. A
// backend supplies its per-query answer, bounded distance and route; they
// only ever see in-range ids.
type hier struct {
	record
	// answer is the scheme's estimate of v to s and its first forwarding
	// hop (-1 when it cannot forward); ok is false on a miss.
	answer func(v int, s int32) (dist float64, via int32, ok bool)
	// within is the distance answer alone, exact below ub (see
	// Instance.DistsWithin).
	within func(v int, s int32, ub float64) float64
	route  func(v int, s int32) (*core.Route, error)
}

// tables is what the accounting reads of a built §4 scheme.
type tables interface {
	LabelBits(v int) int
	TableWords(v int) int
	Fingerprint() uint64
}

// init records a §4 build and its accounting: label bits and table words
// summed over the nodes, plus the shared words of globally replicated
// state counted once; the paper's stretch bound; the construction's
// round count.
func (h *hier) init(sp Spec, g *graph.Graph, buildNS int64, sch tables, scheme string, bound float64, rounds, shared int) error {
	n := g.N()
	maxBits, sumBits, words := 0, 0, shared
	for v := 0; v < n; v++ {
		b := sch.LabelBits(v)
		sumBits += b
		maxBits = max(maxBits, b)
		words += sch.TableWords(v)
	}
	_, err := h.record.init(sp, g, buildNS, sch.Fingerprint, Accounting{
		Scheme:       scheme,
		TableBytes:   8 * int64(words),
		Entries:      words,
		MaxLabelBits: maxBits,
		AvgLabelBits: float64(sumBits) / float64(n),
		StretchBound: bound,
		BuildRounds:  rounds,
	}, prober{route: h.Route})
	return err
}

// AnswerInto fans the batch across workers in par.Chunks; answers read
// only immutable tables, so the result is identical at any width. A batch
// that resolves to one worker is answered inline: the closure par.Chunks
// takes escapes through par's go statement, and the pruned set-distance
// evaluation sends hundreds of ≤16-query batches per request.
func (h *hier) AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int) {
	if par.Width(workers, len(qs)) <= 1 {
		h.answerAll(qs, out)
		return
	}
	par.Chunks(workers, len(qs), func(lo, hi int) { h.answerAll(qs[lo:hi], out[lo:hi]) })
}

// answerAll answers each query in turn. Out-of-range ids and misses
// answer with the zero Answer, like the oracle backend: every transport
// validates ids against the snapshot it answers from, but a serving path
// must never panic on an id it was handed; and only the OK flag is
// contract on a miss, as +Inf would not survive the JSON wire encoding.
//
//pde:hotpath
func (h *hier) answerAll(qs []oracle.Query, out []oracle.Answer) {
	n := int32(h.Gr.N())
	for i, q := range qs {
		out[i] = oracle.Answer{}
		if !q.InRange(n) {
			continue
		}
		if d, via, ok := h.answer(int(q.V), q.S); ok {
			out[i] = oracle.Answer{Est: core.Estimate{Dist: d, Src: q.S, Via: via}, OK: true}
		}
	}
}

// DistsWithin answers each query through the backend's bounded distance.
// Out-of-range ids are misses, as in answerAll.
//
//pde:hotpath
func (h *hier) DistsWithin(qs []oracle.Query, ub float64, out []float64) {
	n := int32(h.Gr.N())
	for i, q := range qs {
		out[i] = math.Inf(1)
		if q.InRange(n) {
			out[i] = h.within(int(q.V), q.S, ub)
		}
	}
}

// Route delivers a packet from v to s through the scheme's stateless
// forwarding function.
func (h *hier) Route(v int, s int32) (*core.Route, error) { return h.route(v, s) }

// rtcC scales the h = σ = C·ln(n)/p sweep widths; 1.5 sharpens the
// w.h.p. detection guarantees at serving scale (the CLIs always used it
// for compact; rtc inherits the same margin).
const rtcC = 1.5

// rtcParams derives the Theorem 4.5 construction parameters from a
// serving spec.
func rtcParams(sp Spec) rtc.Params {
	sp = sp.Normalized()
	return rtc.Params{
		K:             sp.K,
		Epsilon:       sp.Eps,
		C:             rtcC,
		SampleProb:    sp.SampleProb,
		HOverride:     sp.H,
		SigmaOverride: sp.Sigma,
		Seed:          sp.Seed,
	}
}

// RTCInstance serves Theorem 4.5 routing tables: short-range PDE tables,
// a skeleton spanner for the long-range legs, and tree-label descent.
type RTCInstance struct {
	hier
	Sch *rtc.Scheme
}

// buildRTC is the rtc backend; prev's scheme is the construction's
// predecessor (see rtc.Build).
func buildRTC(sp Spec, g *graph.Graph, prev Instance) (Instance, UpdateStats, error) {
	var from *rtc.Scheme
	if p, ok := prev.(*RTCInstance); ok {
		from = p.Sch
	}
	sch, st, buildNS, err := buildCost(func() (*rtc.Scheme, core.PatchStats, error) {
		return rtc.Build(g, rtcParams(sp), congest.Config{Parallel: true, Workers: sp.BuildWorkers}, from)
	})
	if err != nil {
		return nil, st, err
	}
	in := &RTCInstance{Sch: sch}
	// Dist is the local table answer (§2.4), Via the stateless forwarding
	// function's first hop (v itself when v == s).
	in.answer = func(v int, s int32) (float64, int32, bool) {
		dst := sch.Labels[s]
		d := sch.Dist(v, dst)
		if math.IsInf(d, 1) {
			return 0, 0, false
		}
		next, _, err := sch.NextHop(v, dst)
		if err != nil {
			return d, -1, true
		}
		return d, int32(next), true
	}
	in.within = func(v int, s int32, _ float64) float64 { return sch.Dist(v, sch.Labels[s]) }
	in.route = func(v int, s int32) (*core.Route, error) {
		rt, err := sch.Route(v, sch.Labels[s])
		if err != nil {
			return nil, err
		}
		return &rt.Route, nil
	}
	if err := in.init(sp, g, buildNS, sch, "rtc", float64(6*sp.K-1), sch.Rounds.Total, 0); err != nil {
		return nil, st, err
	}
	return in, st, nil
}

// compactC matches the C the E6 experiment table and examples/compact
// have always used.
const compactC = 1.5

// compactParams derives the §4.3 hierarchy parameters from a serving
// spec.
func compactParams(sp Spec) compact.Params {
	sp = sp.Normalized()
	strat := compact.StrategyNone
	switch sp.Strategy {
	case "simulate":
		strat = compact.StrategySimulate
	case "broadcast":
		strat = compact.StrategyBroadcast
	}
	return compact.Params{
		K:          sp.K,
		Epsilon:    sp.Eps,
		C:          compactC,
		L0:         sp.L0,
		Strategy:   strat,
		SampleBase: sp.SampleProb,
		Seed:       sp.Seed,
	}
}

// CompactInstance serves the Thorup–Zwick hierarchy: per-level bunches
// and pivots, with optional Lemma 4.12 truncation onto the skeleton
// overlay.
type CompactInstance struct {
	hier
	Sch *compact.Scheme
}

// buildCompact is the compact backend; prev's hierarchy is the
// construction's predecessor (see compact.Build).
func buildCompact(sp Spec, g *graph.Graph, prev Instance) (Instance, UpdateStats, error) {
	var from *compact.Scheme
	if p, ok := prev.(*CompactInstance); ok {
		from = p.Sch
	}
	sch, st, buildNS, err := buildCost(func() (*compact.Scheme, core.PatchStats, error) {
		return compact.Build(g, compactParams(sp), congest.Config{Parallel: true, Workers: sp.BuildWorkers}, from)
	})
	if err != nil {
		return nil, st, err
	}
	in := &CompactInstance{Sch: sch}
	// One pass over the hierarchy (compact.Scheme.Answer) gives the §2.4
	// local-table estimate and the origin's level selection and first
	// hop; AnswerWithin skips every level whose label tail alone reaches
	// ub or the best level seen so far.
	in.answer = func(v int, s int32) (float64, int32, bool) {
		a := sch.Answer(v, sch.Labels[s])
		return a.Dist, a.Hop, a.OK
	}
	in.within = func(v int, s int32, ub float64) float64 { return sch.AnswerWithin(v, sch.Labels[s], ub) }
	in.route = func(v int, s int32) (*core.Route, error) {
		rt, err := sch.Route(v, sch.Labels[s])
		if err != nil {
			return nil, err
		}
		return &rt.Route, nil
	}
	if err := in.init(sp, g, buildNS, sch, "compact", float64(4*sp.K-3), sch.Rounds.Total, sch.SharedWords()); err != nil {
		return nil, st, err
	}
	return in, st, nil
}

package scheme

import (
	"math"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/rtc"
)

// rtcC scales the h = σ = C·ln(n)/p sweep widths; 1.5 sharpens the
// w.h.p. detection guarantees at serving scale (the CLIs always used it
// for compact; rtc inherits the same margin).
const rtcC = 1.5

// RTCParams derives the Theorem 4.5 construction parameters from a
// serving spec. Exported so the differential tests can build the legacy
// in-process scheme from exactly the recipe the backend uses.
func RTCParams(sp Spec) rtc.Params {
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
	Sp  Spec
	Gr  *graph.Graph
	Sch *rtc.Scheme

	buildNS int64
	fp      uint64
	acct    Accounting
}

func buildRTCOn(sp Spec, g *graph.Graph) (Instance, error) {
	var sch *rtc.Scheme
	buildNS, err := buildCost(func() error {
		var berr error
		sch, berr = rtc.Build(g, RTCParams(sp), congest.Config{Parallel: true, Workers: sp.BuildWorkers})
		return berr
	})
	if err != nil {
		return nil, err
	}
	in := &RTCInstance{Sp: sp, Gr: g, Sch: sch, buildNS: buildNS, fp: sch.Fingerprint()}
	maxS, meanS, routes, err := measureStretch(g, sp.Seed, in.Route, nil)
	if err != nil {
		return nil, err
	}
	n := g.N()
	maxBits, sumBits, words := 0, 0, 0
	for v := 0; v < n; v++ {
		b := sch.LabelBits(v)
		sumBits += b
		if b > maxBits {
			maxBits = b
		}
		words += sch.TableWords(v)
	}
	in.acct = Accounting{
		Scheme:          "rtc",
		TableBytes:      8 * int64(words),
		Entries:         words,
		MaxLabelBits:    maxBits,
		AvgLabelBits:    float64(sumBits) / float64(n),
		StretchBound:    float64(6*sp.K - 1),
		MeasuredStretch: maxS,
		MeanStretch:     meanS,
		ProbeRoutes:     routes,
		BuildRounds:     sch.Rounds.Total,
	}
	return in, nil
}

func (in *RTCInstance) Scheme() string         { return "rtc" }
func (in *RTCInstance) Spec() Spec             { return in.Sp }
func (in *RTCInstance) Graph() *graph.Graph    { return in.Gr }
func (in *RTCInstance) Fingerprint() uint64    { return in.fp }
func (in *RTCInstance) BuildNS() int64         { return in.buildNS }
func (in *RTCInstance) Accounting() Accounting { return in.acct }

// answer is the per-query serving contract: Dist is DistEstimate's local
// table answer (§2.4), Via the stateless forwarding function's first hop
// (v itself when v == s, -1 when the scheme cannot forward). Out-of-range
// ids answer as misses, like the oracle backend: every transport
// validates ids against the snapshot it answers from, but a serving path
// must never panic on an id it was handed.
func (in *RTCInstance) answer(q oracle.Query) oracle.Answer {
	v := int(q.V)
	if !q.InRange(int32(in.Gr.N())) {
		return oracle.Answer{}
	}
	dst := in.Sch.Labels[q.S]
	d := in.Sch.Dist(v, dst)
	if math.IsInf(d, 1) {
		// Misses answer with the zero Estimate, like the oracle backend:
		// only the OK flag is contract, and +Inf would not survive the
		// JSON wire encoding.
		return oracle.Answer{}
	}
	via := int32(-1)
	if next, _, herr := in.Sch.NextHop(v, dst); herr == nil {
		via = int32(next)
	}
	return oracle.Answer{Est: core.Estimate{Dist: d, Src: q.S, Via: via}, OK: true}
}

// AnswerInto fans the batch across workers; every answer reads only the
// immutable tables, so the result is identical at any width. As in
// CompactInstance.AnswerInto, a one-worker batch is answered inline.
func (in *RTCInstance) AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int) {
	if Width(len(qs), workers) <= 1 {
		for i, q := range qs {
			out[i] = in.answer(q)
		}
		return
	}
	FanOut(len(qs), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = in.answer(qs[i])
		}
	})
}

// DistsWithin answers each query with the distance estimate alone
// (rtc.Scheme.Dist), skipping the forwarding decision answer makes.
// Out-of-range ids are misses, as in answer.
//
//pde:hotpath
func (in *RTCInstance) DistsWithin(qs []oracle.Query, ub float64, out []float64) {
	n := int32(in.Gr.N())
	for i, q := range qs {
		if !q.InRange(n) {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = in.Sch.Dist(int(q.V), in.Sch.Labels[q.S])
	}
}

// Route walks the stateless forwarding function from v to s.
func (in *RTCInstance) Route(v int, s int32) (*core.Route, error) {
	rt, err := in.Sch.Route(v, in.Sch.Labels[s])
	if err != nil {
		return nil, err
	}
	return &rt.Route, nil
}

package scheme

import (
	"pde/internal/compact"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
)

// compactC matches the C the pde-experiments compact subcommand and the
// experiment tables have always used.
const compactC = 1.5

// CompactParams derives the §4.3 hierarchy parameters from a serving
// spec. Exported so the differential tests can build the legacy
// in-process scheme from exactly the recipe the backend uses.
func CompactParams(sp Spec) compact.Params {
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
	Sp  Spec
	Gr  *graph.Graph
	Sch *compact.Scheme

	buildNS int64
	fp      uint64
	acct    Accounting
}

func buildCompactOn(sp Spec, g *graph.Graph) (Instance, error) {
	var sch *compact.Scheme
	buildNS, err := buildCost(func() error {
		var berr error
		sch, berr = compact.Build(g, CompactParams(sp), congest.Config{Parallel: true, Workers: sp.BuildWorkers})
		return berr
	})
	if err != nil {
		return nil, err
	}
	in := &CompactInstance{Sp: sp, Gr: g, Sch: sch, buildNS: buildNS, fp: sch.Fingerprint()}
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
	words += sch.SharedWords()
	in.acct = Accounting{
		Scheme:          "compact",
		TableBytes:      8 * int64(words),
		Entries:         words,
		MaxLabelBits:    maxBits,
		AvgLabelBits:    float64(sumBits) / float64(n),
		StretchBound:    float64(4*sp.K - 3),
		MeasuredStretch: maxS,
		MeanStretch:     meanS,
		ProbeRoutes:     routes,
		BuildRounds:     sch.Rounds.Total,
	}
	return in, nil
}

func (in *CompactInstance) Scheme() string         { return "compact" }
func (in *CompactInstance) Spec() Spec             { return in.Sp }
func (in *CompactInstance) Graph() *graph.Graph    { return in.Gr }
func (in *CompactInstance) Fingerprint() uint64    { return in.fp }
func (in *CompactInstance) BuildNS() int64         { return in.buildNS }
func (in *CompactInstance) Accounting() Accounting { return in.acct }

// answer mirrors the rtc contract: Dist from the §2.4 local-table
// estimate, Via from the origin's level selection and first hop — one
// pass over the hierarchy (compact.Scheme.Answer) yields both.
// Out-of-range ids answer as misses, like the oracle backend: every
// transport validates ids against the snapshot it answers from, but a
// serving path must never panic on an id it was handed.
func (in *CompactInstance) answer(q oracle.Query) oracle.Answer {
	if !q.InRange(int32(in.Gr.N())) {
		return oracle.Answer{}
	}
	a := in.Sch.Answer(int(q.V), in.Sch.Labels[q.S])
	if !a.OK {
		// Misses answer with the zero Estimate, like the oracle backend:
		// only the OK flag is contract, and +Inf would not survive the
		// JSON wire encoding.
		return oracle.Answer{}
	}
	return oracle.Answer{Est: core.Estimate{Dist: a.Dist, Src: q.S, Via: a.Hop}, OK: true}
}

// AnswerInto fans the batch across workers; answers read only immutable
// tables, so the result is identical at any width. A batch that resolves
// to one worker is answered inline: the closure FanOut takes escapes
// through its go statement, and the pruned set-distance evaluation sends
// hundreds of ≤16-query batches per request.
func (in *CompactInstance) AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int) {
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

// Route delivers a packet from v to s through the hierarchy.
func (in *CompactInstance) Route(v int, s int32) (*core.Route, error) {
	rt, err := in.Sch.Route(v, in.Sch.Labels[s])
	if err != nil {
		return nil, err
	}
	return &rt.Route, nil
}

package scheme

import (
	"fmt"
	"math"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
)

// OracleInstance is the compiled-CSR backend: the tables oracle.Compile
// lays out over the PDE result of the spec's params. Its answers are
// the compiled oracle's and its fingerprint is the result's.
type OracleInstance struct {
	record
	Res *core.Result
	O   *oracle.Oracle
}

func buildOracleOn(sp Spec, g *graph.Graph) (Instance, error) {
	in, _, err := buildOracle(sp, g, nil)
	return in, err
}

// buildOracle is the one oracle build — cold, rebuild and update alike —
// of the result for sp's params on g. prev, when non-nil, is the served
// result for a graph of g's structure: core.Build reuses its untouched
// rounding instances and takes the rows they did not move from it. A nil
// prev builds everything.
func buildOracle(sp Spec, g *graph.Graph, prev *core.Result) (Instance, core.PatchStats, error) {
	var ps core.PatchStats
	res, buildNS, err := buildCost(func() (res *core.Result, err error) {
		res, ps, err = core.Build(g, sp.Params(g.N()), congest.Config{Parallel: true, Workers: sp.BuildWorkers}, prev)
		return res, err
	})
	if err != nil {
		return nil, ps, fmt.Errorf("pde build: %w", err)
	}
	in, err := NewOracleInstance(sp, g, res, buildNS)
	if err != nil {
		return nil, ps, err
	}
	return in, ps, nil
}

// NewOracleInstance wraps an already-built PDE result into a serving
// instance over its tables and measures its accounting: the end of every
// oracle build, and the prebuilt path for callers (bench, tests) that
// paid for the construction elsewhere. The spec is the instance's only
// recipe, so res must have been built under sp.Params(g.N()) exactly:
// a cold BuildOn(sp, g) then reproduces its fingerprint, and updates and
// their verification build what it serves.
func NewOracleInstance(sp Spec, g *graph.Graph, res *core.Result, buildNS int64) (*OracleInstance, error) {
	sp = sp.Normalized()
	if sp.Scheme != "oracle" {
		return nil, fmt.Errorf("prebuilt tables are oracle tables, spec says scheme %q", sp.Scheme)
	}
	if !res.Params.Equal(sp.Params(g.N())) {
		return nil, fmt.Errorf("prebuilt tables were built under other params than the spec's; build them from Spec.Params(n)")
	}
	in := &OracleInstance{Res: res, O: oracle.Compile(res)}
	idBits := graph.IDBits(g.N())
	err := in.init(sp, g, buildNS, res.Fingerprint, Accounting{
		Scheme:       "oracle",
		TableBytes:   in.O.Bytes(),
		Entries:      in.O.Entries(),
		MaxLabelBits: idBits,
		AvgLabelBits: float64(idBits),
		StretchBound: 1 + sp.Eps,
		BuildRounds:  res.BudgetRounds,
	}, in.Route, func(v int) []int32 {
		// Only list members are guaranteed routable (Corollary 3.5);
		// partial sweeps leave most uniform pairs without an entry.
		srcs := make([]int32, 0, len(res.Lists[v]))
		for _, e := range res.Lists[v] {
			srcs = append(srcs, e.Src)
		}
		return srcs
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

// AnswerInto delegates to the compiled oracle's batch path — the same
// indexed lookup the in-process benchmarks measure.
func (in *OracleInstance) AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int) {
	in.O.AnswerInto(qs, out, workers)
}

// DistsWithin reads each query's distance column alone; a compiled
// lookup is already one search, so ub prunes nothing here.
//
//pde:hotpath
func (in *OracleInstance) DistsWithin(qs []oracle.Query, ub float64, out []float64) {
	for i, q := range qs {
		d, ok := in.O.Dist(int(q.V), q.S)
		if !ok {
			d = math.Inf(1)
		}
		out[i] = d
	}
}

// AnswerSorted serves a batch grouped into runs of equal V one table row
// at a time — the optional capability the wire layer's row grouping
// looks for. Other schemes omit it and the wire layer falls back to
// AnswerInto.
//
//pde:hotpath
func (in *OracleInstance) AnswerSorted(qs []oracle.Query, out []oracle.Answer) {
	in.O.AnswerSorted(qs, out)
}

// Route expands the stretch-(1+ε) PDE route from v to s.
func (in *OracleInstance) Route(v int, s int32) (*core.Route, error) {
	return in.O.Route(in.Gr, v, s)
}

package scheme

import (
	"fmt"
	"math"
	"sync"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
)

// OracleInstance is the compiled-CSR backend: the exact serving path the
// daemon had before the registry existed, byte-for-byte. Its answers and
// fingerprint are those of the underlying core.Result, so pre-registry
// shards and post-registry oracle shards are indistinguishable on the
// wire.
type OracleInstance struct {
	Sp  Spec
	Gr  *graph.Graph
	Res *core.Result
	O   *oracle.Oracle

	buildNS int64
	acct    Accounting
	// fp is Res.Fingerprint, digested on first use and held: a
	// generation's identity is asked for many times (stamp, stats,
	// divergence probes) and walking the whole result costs milliseconds
	// — but not inside the build, which never needs it.
	fp func() uint64
}

func buildOracleOn(sp Spec, g *graph.Graph) (Instance, error) {
	in, _, err := buildOracle(sp, g, sp.Params(g.N()), nil)
	return in, err
}

// buildOracle is the one oracle build — cold, rebuild and update alike —
// of the result for params p on g. prev, when non-nil, is the served
// result for a graph of g's structure: core.Build reuses its untouched
// rounding instances and takes the rows they did not move from it. A nil
// prev builds everything.
func buildOracle(sp Spec, g *graph.Graph, p core.Params, prev *core.Result) (Instance, core.PatchStats, error) {
	var res *core.Result
	var ps core.PatchStats
	buildNS, err := buildCost(func() error {
		var rerr error
		res, ps, rerr = core.Build(g, p, congest.Config{Parallel: true, Workers: sp.BuildWorkers}, prev)
		if rerr != nil {
			return fmt.Errorf("pde build: %w", rerr)
		}
		return nil
	})
	if err != nil {
		return nil, ps, err
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
// paid for the construction elsewhere.
func NewOracleInstance(sp Spec, g *graph.Graph, res *core.Result, buildNS int64) (*OracleInstance, error) {
	sp = sp.Normalized()
	if sp.Scheme != "oracle" {
		return nil, fmt.Errorf("prebuilt tables are oracle tables, spec says scheme %q", sp.Scheme)
	}
	in := &OracleInstance{
		Sp:      sp,
		Gr:      g,
		Res:     res,
		O:       oracle.Compile(res),
		buildNS: buildNS,
		fp:      sync.OnceValue(res.Fingerprint),
	}
	maxS, meanS, routes, err := measureStretch(g, sp.Seed, in.Route, func(v int) []int32 {
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
	idBits := graph.IDBits(g.N())
	in.acct = Accounting{
		Scheme:          "oracle",
		TableBytes:      in.O.Bytes(),
		Entries:         in.O.Entries(),
		MaxLabelBits:    idBits,
		AvgLabelBits:    float64(idBits),
		StretchBound:    1 + sp.Eps,
		MeasuredStretch: maxS,
		MeanStretch:     meanS,
		ProbeRoutes:     routes,
		BuildRounds:     res.BudgetRounds,
	}
	return in, nil
}

func (in *OracleInstance) Scheme() string      { return "oracle" }
func (in *OracleInstance) Spec() Spec          { return in.Sp }
func (in *OracleInstance) Graph() *graph.Graph { return in.Gr }
func (in *OracleInstance) BuildNS() int64      { return in.buildNS }
func (in *OracleInstance) Accounting() Accounting {
	return in.acct
}

// Fingerprint is the result's digest as of its first call; the result is
// immutable once served, so that is the generation's identity.
func (in *OracleInstance) Fingerprint() uint64 { return in.fp() }

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

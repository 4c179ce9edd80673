package scheme

import (
	"fmt"
	"math"
	"slices"

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

	// probes is what the stretch probe measured, source by source, for
	// the next update to take over; nil on a prebuilt instance.
	probes []*probeSource
}

// buildOracle is the oracle backend: the result for sp's params on g,
// compiled and probed. With prev, the served instance on a graph of g's
// structure, core.Build reuses its untouched rounding instances and takes
// the rows they did not move from it, and the stretch probe takes over
// every probe source the update did not touch.
func buildOracle(sp Spec, g *graph.Graph, prev Instance) (Instance, UpdateStats, error) {
	p, _ := prev.(*OracleInstance)
	if p == nil {
		p = &OracleInstance{} // a cold build: no result or probe to take over
	}
	res, st, buildNS, err := buildCost(func() (*core.Result, core.PatchStats, error) {
		return core.Build(g, sp.Params(g.N()), congest.Config{Parallel: true, Workers: sp.BuildWorkers}, p.Res)
	})
	if err != nil {
		return nil, st, fmt.Errorf("pde build: %w", err)
	}
	in, reused, err := newOracleInstance(sp, g, res, buildNS, prober{record: true, prev: p.probes, keep: unmoved(res)})
	st.ProbesReused = reused
	if err != nil {
		return nil, st, err
	}
	return in, st, nil
}

// unmoved accepts a probe source of the generation res was built from
// when nothing it read moved: neither v's row nor a route node's, and no
// changed edge has an endpoint among its settled or route nodes. Its
// distances are then the same on the new graph — a shorter path to a
// node within its radius would leave that radius on an unchanged edge —
// and each of its routes takes the same hops over the same weights.
func unmoved(res *core.Result) func(*probeSource) bool {
	changed := res.Changed()
	return func(src *probeSource) bool {
		if res.RowMoved(int(src.v)) {
			return false
		}
		for _, u := range src.route {
			if res.RowMoved(int(u)) {
				return false
			}
		}
		for _, e := range changed {
			for _, u := range [2]int32{e.U, e.V} {
				if _, ok := slices.BinarySearch(src.settled, u); ok {
					return false
				}
				if _, ok := slices.BinarySearch(src.route, u); ok {
					return false
				}
			}
		}
		return true
	}
}

// NewOracleInstance wraps an already-built PDE result into a serving
// instance over its tables and measures its accounting: the prebuilt
// path for callers (bench, tests) that paid for the construction
// elsewhere. The spec is the instance's only recipe, so res must have
// been built under sp.Params(g.N()) exactly: a cold BuildOn(sp, g) then
// reproduces its fingerprint, and updates and their verification build
// what it serves. Its stretch probe runs in full and keeps nothing, so
// its first update probes in full as well.
func NewOracleInstance(sp Spec, g *graph.Graph, res *core.Result, buildNS int64) (*OracleInstance, error) {
	in, _, err := newOracleInstance(sp, g, res, buildNS, prober{})
	return in, err
}

// newOracleInstance is the end of every oracle build: it checks the
// spec, compiles res and probes it with pb (route and candidates are
// filled in here), and returns how many probe sources it took over.
func newOracleInstance(sp Spec, g *graph.Graph, res *core.Result, buildNS int64, pb prober) (*OracleInstance, int, error) {
	sp = sp.Normalized()
	if sp.Scheme != "oracle" {
		return nil, 0, fmt.Errorf("prebuilt tables are oracle tables, spec says scheme %q", sp.Scheme)
	}
	if !res.Params.Equal(sp.Params(g.N())) {
		return nil, 0, fmt.Errorf("prebuilt tables were built under other params than the spec's; build them from Spec.Params(n)")
	}
	in := &OracleInstance{Res: res, O: oracle.Compile(res)}
	idBits := graph.IDBits(g.N())
	pb.route = in.Route
	pb.candidates = func(v int) []int32 {
		// Only list members are guaranteed routable (Corollary 3.5);
		// partial sweeps leave most uniform pairs without an entry.
		srcs := make([]int32, 0, len(res.Lists[v]))
		for _, e := range res.Lists[v] {
			srcs = append(srcs, e.Src)
		}
		return srcs
	}
	pr, err := in.init(sp, g, buildNS, res.Fingerprint, Accounting{
		Scheme:       "oracle",
		TableBytes:   in.O.Bytes(),
		Entries:      in.O.Entries(),
		MaxLabelBits: idBits,
		AvgLabelBits: float64(idBits),
		StretchBound: 1 + sp.Eps,
		BuildRounds:  res.BudgetRounds,
	}, pb)
	if err != nil {
		return nil, 0, err
	}
	in.probes = pr.sources
	return in, pr.reused, nil
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

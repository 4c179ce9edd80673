package oracle

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
)

func buildResult(t testing.TB, g *graph.Graph, p core.Params) *core.Result {
	t.Helper()
	res, err := core.Run(g, p, congest.Config{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return res
}

func sweepParams(n, h, sigma int, eps float64) core.Params {
	src := make([]bool, n)
	for v := 0; v < n; v += 3 {
		src[v] = true
	}
	return core.Params{IsSource: src, H: h, Sigma: sigma, Epsilon: eps}
}

// TestOracleMatchesLegacyScans is the bit-identity property test: on every
// topology/seed/parameter cell, the compiled oracle must answer Estimate
// and NextHop exactly as the scan reference does, for every (v, s) pair
// including undetected ones.
func TestOracleMatchesLegacyScans(t *testing.T) {
	type cell struct {
		name   string
		g      *graph.Graph
		params core.Params
	}
	var cells []cell
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(48, 6.0/48, 16, r)
		cells = append(cells, cell{"random-apsp", g, core.APSPParams(g.N(), 0.5)})
		r = rand.New(rand.NewSource(seed + 100))
		g = graph.Grid(6, 6, 12, r)
		cells = append(cells, cell{"grid-sweep", g, sweepParams(g.N(), 12, 6, 0.25)})
		r = rand.New(rand.NewSource(seed + 200))
		g = graph.Internet(40, 20, r)
		cells = append(cells, cell{"internet-apsp", g, core.APSPParams(g.N(), 1)})
	}
	for _, c := range cells {
		res := buildResult(t, c.g, c.params)
		o := Compile(res)
		n := c.g.N()
		if o.N() != n {
			t.Fatalf("%s: oracle has %d nodes, want %d", c.name, o.N(), n)
		}
		for v := 0; v < n; v++ {
			for s := int32(0); s < int32(n); s++ {
				we, wok := scanEstimate(res, v, s)
				ge, gok := o.Estimate(v, s)
				if wok != gok || (wok && we != ge) {
					t.Fatalf("%s: Estimate(%d,%d): scan (%+v,%v) oracle (%+v,%v)", c.name, v, s, we, wok, ge, gok)
				}
				if gd, gdok := o.Dist(v, s); gdok != wok || (wok && gd != we.Dist) {
					t.Fatalf("%s: Dist(%d,%d) = (%g,%v), scan says (%g,%v)", c.name, v, s, gd, gdok, we.Dist, wok)
				}
				wn, wnok := scanNextHop(res, v, s)
				gn, gnok := o.NextHop(v, s)
				if wn != gn || wnok != gnok {
					t.Fatalf("%s: NextHop(%d,%d): scan (%d,%v) oracle (%d,%v)", c.name, v, s, wn, wnok, gn, gnok)
				}
			}
		}
	}
}

// sourcesOf calls fn for each of v's compiled entries in ascending source
// order (the full row, not the σ-capped list). Out-of-range v has no
// entries.
func sourcesOf(o *Oracle, v int, fn func(core.Estimate)) {
	if v < 0 || v >= o.n {
		return
	}
	pg, lo, hi := o.row(v)
	for k := lo; k < hi; k++ {
		fn(at(pg, k))
	}
}

// TestOracleSourcesOfMatchesCombine asserts sourcesOf enumerates exactly
// the union-of-instances combine in ascending source order.
func TestOracleSourcesOfMatchesCombine(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(32, 6.0/32, 8, r)
	res := buildResult(t, g, core.APSPParams(g.N(), 0.5))
	o := Compile(res)
	for v := 0; v < g.N(); v++ {
		var got []core.Estimate
		sourcesOf(o, v, func(e core.Estimate) { got = append(got, e) })
		prev := int32(-1)
		for _, e := range got {
			if e.Src <= prev {
				t.Fatalf("node %d: sources out of order: %d after %d", v, e.Src, prev)
			}
			prev = e.Src
			want, ok := scanEstimate(res, v, e.Src)
			if !ok || want != e {
				t.Fatalf("node %d src %d: SourcesOf %+v, Estimate (%+v,%v)", v, e.Src, e, want, ok)
			}
		}
		// Every source the scan finds must be enumerated.
		for s := int32(0); s < int32(g.N()); s++ {
			if _, ok := scanEstimate(res, v, s); !ok {
				continue
			}
			found := false
			for _, e := range got {
				if e.Src == s {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d: source %d missing from SourcesOf", v, s)
			}
		}
	}
}

// TestOracleConcurrentReaders hammers one shared oracle from many
// goroutines under -race: the compiled form is immutable, so concurrent
// reads need no locking and must all agree with the scan's answers.
func TestOracleConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := graph.RandomConnected(40, 6.0/40, 12, r)
	res := buildResult(t, g, core.APSPParams(g.N(), 0.5))
	o := Compile(res)
	n := g.N()

	want := make([]Answer, n*n)
	for v := 0; v < n; v++ {
		for s := 0; s < n; s++ {
			e, ok := scanEstimate(res, v, int32(s))
			want[v*n+s] = Answer{Est: e, OK: ok}
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				v, s := rr.Intn(n), int32(rr.Intn(n))
				e, ok := o.Estimate(v, s)
				if got := (Answer{Est: e, OK: ok}); got != want[v*n+int(s)] {
					select {
					case errc <- &mismatchError{v, s}:
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

type mismatchError struct {
	v int
	s int32
}

func (e *mismatchError) Error() string {
	return "concurrent Estimate mismatch"
}

// TestAnswerBatchAndParallel checks the batch APIs agree with point
// queries, with and without worker fan-out.
func TestAnswerBatchAndParallel(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := graph.RandomConnected(36, 6.0/36, 10, r)
	res := buildResult(t, g, core.APSPParams(g.N(), 1))
	o := Compile(res)
	n := g.N()

	qs := make([]Query, 0, n*n)
	for v := 0; v < n; v++ {
		for s := 0; s < n; s++ {
			qs = append(qs, Query{V: int32(v), S: int32(s)})
		}
	}
	seq := make([]Answer, len(qs))
	o.AnswerAll(qs, seq)
	for _, workers := range []int{0, 1, 3, 16} {
		par := make([]Answer, len(qs))
		o.AnswerInto(qs, par, workers)
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("workers=%d: answer %d diverges: %+v vs %+v", workers, i, seq[i], par[i])
			}
		}
	}
	for i, q := range qs {
		e, ok := o.Estimate(int(q.V), q.S)
		if (Answer{Est: e, OK: ok}) != seq[i] {
			t.Fatalf("AnswerAll[%d] != Estimate(%d,%d)", i, q.V, q.S)
		}
	}
}

// TestAnswerSortedMatchesAnswerAll is the bit-identity property test for
// the row-grouped path: on sparse (sweep) and dense (APSP) tables,
// streams grouped by row — (V, S)-ascending, or with S shuffled inside
// each row as the wire layer's row grouping leaves it, including
// duplicate pairs, missing pairs, and rows the table has no entries
// for — must answer exactly as AnswerAll, and ungrouped input must
// still answer correctly (it only forfeits the row reuse).
func TestAnswerSortedMatchesAnswerAll(t *testing.T) {
	for name, build := range map[string]func() (*graph.Graph, core.Params){
		"random-apsp": func() (*graph.Graph, core.Params) {
			g := graph.RandomConnected(40, 6.0/40, 8, rand.New(rand.NewSource(31)))
			return g, core.APSPParams(g.N(), 1)
		},
		"grid-sweep": func() (*graph.Graph, core.Params) {
			g := graph.Grid(6, 6, 12, rand.New(rand.NewSource(32)))
			return g, sweepParams(g.N(), 12, 6, 0.25)
		},
	} {
		g, params := build()
		res := buildResult(t, g, params)
		o := Compile(res)
		n := int32(g.N())

		r := rand.New(rand.NewSource(33))
		streams := map[string][]Query{}
		sorted := make([]Query, 4096)
		for i := range sorted {
			sorted[i] = Query{V: r.Int31n(n), S: r.Int31n(n)}
		}
		sorted = append(sorted, sorted[:64]...) // duplicates
		slicesSortQueries(sorted)
		streams["sorted"] = sorted
		grouped := append([]Query(nil), sorted...)
		for lo := 0; lo < len(grouped); {
			hi := lo
			for hi < len(grouped) && grouped[hi].V == grouped[lo].V {
				hi++
			}
			row := grouped[lo:hi]
			r.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
			lo = hi
		}
		streams["row-grouped"] = grouped
		unsorted := make([]Query, 2048)
		for i := range unsorted {
			unsorted[i] = Query{V: r.Int31n(n), S: r.Int31n(n)}
		}
		streams["unsorted"] = unsorted // runs of length ~1: every query reloads its row
		streams["one-row"] = []Query{{V: 3, S: 0}, {V: 3, S: 0}, {V: 3, S: 5}, {V: 3, S: n - 1}}
		streams["out-of-range"] = []Query{{V: 5, S: -1}, {V: 5, S: n}, {V: -1, S: 0}, {V: n, S: 0}, {V: 5, S: 2}}

		for sname, qs := range streams {
			want := make([]Answer, len(qs))
			o.AnswerAll(qs, want)
			got := make([]Answer, len(qs))
			o.AnswerSorted(qs, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: AnswerSorted[%d] = %+v, AnswerAll = %+v (query %+v)",
						name, sname, i, got[i], want[i], qs[i])
				}
			}
		}

		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AnswerSorted with short out did not panic", name)
				}
			}()
			o.AnswerSorted(sorted, make([]Answer, len(sorted)-1))
		}()
	}
}

// slicesSortQueries orders qs ascending by (V, S) — the wire layer's
// table order.
func slicesSortQueries(qs []Query) {
	sort.Slice(qs, func(i, j int) bool {
		if qs[i].V != qs[j].V {
			return qs[i].V < qs[j].V
		}
		return qs[i].S < qs[j].S
	})
}

// TestAnswerAllLengthContract pins the batch contract: out must have
// exactly len(qs) slots, and a mismatch panics loudly instead of leaving
// a silently torn batch.
func TestAnswerAllLengthContract(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := graph.RandomConnected(12, 6.0/12, 8, r)
	res := buildResult(t, g, core.APSPParams(g.N(), 1))
	o := Compile(res)

	qs := []Query{{V: 0, S: 1}, {V: 1, S: 2}, {V: 2, S: 0}}
	for name, call := range map[string]func(){
		"AnswerAll/short":  func() { o.AnswerAll(qs, make([]Answer, len(qs)-1)) },
		"AnswerAll/long":   func() { o.AnswerAll(qs, make([]Answer, len(qs)+1)) },
		"AnswerInto/short": func() { o.AnswerInto(qs, make([]Answer, 0), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mismatched out length did not panic", name)
				}
			}()
			call()
		}()
	}
	// The exact-length call still works and matches point queries.
	out := make([]Answer, len(qs))
	o.AnswerAll(qs, out)
	for i, q := range qs {
		e, ok := o.Estimate(int(q.V), q.S)
		if (Answer{Est: e, OK: ok}) != out[i] {
			t.Fatalf("answer %d diverges from point query", i)
		}
	}
}

// TestOracleOutOfRangeIsMiss pins the bounds contract: a node id outside
// [0, n) is a miss, never a panic. The serving daemon validates queries
// against the table snapshot it answers from; should a transport ever
// answer from a hot-swapped replacement with a smaller n instead, a
// panic here would kill the whole process.
func TestOracleOutOfRangeIsMiss(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := graph.RandomConnected(16, 6.0/16, 8, r)
	res := buildResult(t, g, core.APSPParams(g.N(), 1))
	o := Compile(res)
	for _, v := range []int{-1, -100, g.N(), g.N() + 37} {
		if _, ok := o.Estimate(v, 0); ok {
			t.Errorf("Estimate(%d, 0) reported a hit", v)
		}
		if _, ok := o.NextHop(v, 0); ok && v != 0 {
			t.Errorf("NextHop(%d, 0) reported a hit", v)
		}
		if _, err := o.Route(g, v, 0); err == nil {
			t.Errorf("Route(%d, 0) delivered", v)
		}
		sourcesOf(o, v, func(core.Estimate) { t.Errorf("SourcesOf(%d) yielded an entry", v) })
	}
	out := make([]Answer, 2)
	o.AnswerAll([]Query{{V: -1, S: 0}, {V: int32(g.N()), S: 3}}, out)
	if out[0].OK || out[1].OK {
		t.Errorf("batch answers for out-of-range nodes reported hits: %+v", out)
	}
}

// TestOracleRoutesMatchLegacy delivers full routes from the compiled
// tables and from the scan reference, on APSP and on partial tables (where
// most pairs are undeliverable), and asserts identical paths and failures.
func TestOracleRoutesMatchLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := graph.RandomConnected(40, 6.0/40, 12, r)
	for _, params := range []core.Params{core.APSPParams(g.N(), 0.5), sweepParams(g.N(), 6, 4, 0.5)} {
		res := buildResult(t, g, params)
		requireSameRoutes(t, g, res, Compile(res))
	}
}

func requireSameRoutes(t *testing.T, g *graph.Graph, res *core.Result, o *Oracle) {
	t.Helper()
	n := g.N()
	for v := 0; v < n; v++ {
		for s := int32(0); s < int32(n); s++ {
			lr, lerr := scanRoute(g, res, v, s)
			or, oerr := o.Route(g, v, s)
			if (lerr == nil) != (oerr == nil) {
				t.Fatalf("route %d->%d: scan err %v, oracle err %v", v, s, lerr, oerr)
			}
			if lerr != nil {
				continue
			}
			if lr.Weight != or.Weight || len(lr.Path) != len(or.Path) {
				t.Fatalf("route %d->%d diverges: scan %v oracle %v", v, s, lr.Path, or.Path)
			}
			for i := range lr.Path {
				if lr.Path[i] != or.Path[i] {
					t.Fatalf("route %d->%d hop %d: %d vs %d", v, s, i, lr.Path[i], or.Path[i])
				}
			}
		}
	}
}

// TestOracleStats pins the accounting surface to the layout: one 8-byte
// offset per node plus one, and 21 bytes per entry (source 4, distance 8,
// next hop 4, instance 4, flags 1).
func TestOracleStats(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	g := graph.RandomConnected(24, 6.0/24, 8, r)
	res := buildResult(t, g, core.APSPParams(g.N(), 1))
	o := Compile(res)
	if o.Entries() != g.N()*g.N() {
		t.Fatalf("APSP oracle has %d entries, want %d", o.Entries(), g.N()*g.N())
	}
	if want := int64(8*(o.N()+1) + 21*o.Entries()); o.Bytes() != want {
		t.Fatalf("Bytes() = %d, want 8·(%d+1) + 21·%d = %d", o.Bytes(), o.N(), o.Entries(), want)
	}
}

package bench

// The golden-pin test. The paper's constructions are deterministic
// (Theorem 4.1, Corollary 3.5, Lemma 3.4), so what they produce — output
// digests, rounds, messages, table sizes, stretch, aggregates — is held to
// exact values: pinCases is the one table of seeded scenarios,
// testdata/pins.json holds every deterministic field of every row, and
// `go test ./internal/bench -run TestPins -update` rewrites it. Nothing
// here reads a clock; wall-clock numbers come from benchmark/ only. See
// docs/benchmarks.md for where each cross-path equivalence is tested.

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pde/internal/baseline"
	"pde/internal/compact"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/fingerprint"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/rtc"
	"pde/internal/scheme"
	"pde/internal/setdist"
)

var update = flag.Bool("update", false, "rewrite testdata/pins.json from this run")

const (
	pinsFile   = "testdata/pins.json"
	updateHint = "go test ./internal/bench -run TestPins -update"
	shortMaxN  = 144 // -short runs only rows this small: bounds the -race -short lane
)

// pin is one row's deterministic fields, keyed as pins.json spells them.
type pin map[string]any

type pinCase struct {
	name string
	n    int
	run  func(t *testing.T) pin
}

func TestPins(t *testing.T) {
	names := make([]string, len(pinCases))
	fresh := map[string]pin{}
	for i, c := range pinCases {
		names[i] = c.name
		if testing.Short() && c.n > shortMaxN {
			continue
		}
		t.Run(c.name, func(t *testing.T) { fresh[c.name] = fields(t, c.run(t)) })
	}
	if t.Failed() {
		return
	}
	if *update {
		if len(fresh) != len(pinCases) {
			t.Fatalf("-update needs every row, ran %d of %d: drop -short and any subtest filter", len(fresh), len(pinCases))
		}
		noErr(t, os.WriteFile(pinsFile, encodePins(t, fresh), 0o644))
		return
	}
	for _, msg := range diffPins(readGolden(t), fresh, names) {
		t.Error(msg)
	}
}

// diffPins names every disagreement between the golden file and this
// run: a case with no golden entry, a golden entry with no case, and each
// field whose value moved (an absent field prints as <nil>). Cases that
// did not run (-short) are only checked for having an entry.
func diffPins(golden, fresh map[string]pin, cases []string) []string {
	var msgs []string
	known := map[string]bool{}
	for _, name := range cases {
		known[name] = true
		want, ok := golden[name]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("pin %q has no golden entry in %s; run %s", name, pinsFile, updateHint))
			continue
		}
		got, ran := fresh[name]
		if !ran {
			continue
		}
		union := maps.Clone(want)
		maps.Copy(union, got)
		for _, k := range slices.Sorted(maps.Keys(union)) {
			if !reflect.DeepEqual(want[k], got[k]) {
				msgs = append(msgs, fmt.Sprintf("pin %q field %q: golden %v, got %v", name, k, want[k], got[k]))
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(golden)) {
		if !known[name] {
			msgs = append(msgs, fmt.Sprintf("golden entry %q is stale: no pin case has that name; run %s", name, updateHint))
		}
	}
	return msgs
}

func noErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// encodePins is the file format: sorted keys, two-space indent, trailing
// newline — so regenerating an unchanged tree is a byte-level no-op.
func encodePins(t *testing.T, pins map[string]pin) []byte {
	t.Helper()
	data, err := json.MarshalIndent(pins, "", "  ")
	noErr(t, err)
	return append(data, '\n')
}

// fields takes v (a pin, or a struct with json tags) through JSON, so
// fresh values compare in the decoded form the golden file has.
func fields(t *testing.T, v any) pin {
	t.Helper()
	data, err := json.Marshal(v)
	noErr(t, err)
	var out pin
	noErr(t, json.Unmarshal(data, &out))
	return out
}

func readGolden(t *testing.T) map[string]pin {
	t.Helper()
	data, err := os.ReadFile(pinsFile)
	if err != nil {
		t.Fatalf("%v; run %s", err, updateHint)
	}
	var golden map[string]pin
	noErr(t, json.Unmarshal(data, &golden))
	return golden
}

func TestPinHarness(t *testing.T) {
	row := func(fp string) pin { return pin{"fingerprint": fp, "n": 64.0} }
	for _, tc := range []struct {
		name          string
		golden, fresh map[string]pin
		cases         []string
		want          []string // one substring per expected message, in order
	}{
		{"clean", map[string]pin{"a": row("1")}, map[string]pin{"a": row("1")}, []string{"a"}, nil},
		{"case without golden entry", map[string]pin{}, map[string]pin{"a": row("1")}, []string{"a"},
			[]string{`pin "a" has no golden entry in ` + pinsFile + "; run " + updateHint}},
		{"golden entry without case", map[string]pin{"a": row("1"), "gone": row("2")}, map[string]pin{"a": row("1")}, []string{"a"},
			[]string{`golden entry "gone" is stale`}},
		{"moved field", map[string]pin{"a": row("1")}, map[string]pin{"a": row("2")}, []string{"a"},
			[]string{`pin "a" field "fingerprint": golden 1, got 2`}},
		{"new and dropped field", map[string]pin{"a": {"old": 1.0}}, map[string]pin{"a": {"new": 2.0}}, []string{"a"},
			[]string{`field "new": golden <nil>, got 2`, `field "old": golden 1, got <nil>`}},
		{"row skipped by -short", map[string]pin{"a": row("1"), "big": row("2")}, map[string]pin{"a": row("1")}, []string{"a", "big"}, nil},
	} {
		got := diffPins(tc.golden, tc.fresh, tc.cases)
		if len(got) != len(tc.want) {
			t.Errorf("%s: messages %q, want %d", tc.name, got, len(tc.want))
			continue
		}
		for i, sub := range tc.want {
			if !strings.Contains(got[i], sub) {
				t.Errorf("%s: message %q does not contain %q", tc.name, got[i], sub)
			}
		}
	}

	// -update on a clean tree is a byte-level no-op: the committed file is
	// exactly what encodePins writes for its own contents.
	committed, err := os.ReadFile(pinsFile)
	noErr(t, err)
	if again := encodePins(t, readGolden(t)); string(again) != string(committed) {
		t.Errorf("%s is not in the form -update writes (sorted keys, two-space indent, trailing newline)", pinsFile)
	}

	names := map[string]bool{}
	short := 0
	for _, c := range pinCases {
		names[c.name] = true
		if c.n <= shortMaxN {
			short++
		}
	}
	if len(names) != len(pinCases) || short == 0 || short == len(pinCases) {
		t.Errorf("%d rows, %d distinct names, %d kept by -short: names must be unique and -short must skip the large rows",
			len(pinCases), len(names), short)
	}
}

// --- The table ------------------------------------------------------------

type (
	generator func(*rand.Rand) *graph.Graph
	// algorithm runs one construction on g under cfg and reports its pin.
	algorithm func(t *testing.T, g *graph.Graph, cfg congest.Config) pin
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func hex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// widths are the two build-pool widths every construction and build row
// must agree under: 1, and 3 fixed here so the row means the same thing at
// any GOMAXPROCS.
var widths = [2]congest.Config{{}, {Parallel: true, Workers: 3}}

func randomGraph(n int, deg float64, maxW graph.Weight) generator {
	return func(r *rand.Rand) *graph.Graph { return graph.RandomConnected(n, deg/float64(n), maxW, r) }
}

var pinCases = []pinCase{
	// Constructions: ApproxAPSP (Theorem 4.1), partial (h,σ) sweeps
	// (Corollary 3.5), routing tables (Theorem 4.5), compact hierarchies
	// (§4.3) and the exact baselines.
	{"apsp-random-n64", 64, construction(1, randomGraph(64, 6, 32), apsp(0.5))},
	{"apsp-grid-8x8", 64, construction(2, func(r *rand.Rand) *graph.Graph { return graph.Grid(8, 8, 16, r) }, apsp(0.5))},
	{"apsp-powerlaw-n64", 64, construction(15, func(r *rand.Rand) *graph.Graph { return graph.BarabasiAlbert(64, 3, 32, r) }, apsp(0.5))},
	{"sweep-community-n96", 96, construction(16, func(r *rand.Rand) *graph.Graph { return graph.Community(96, 4, 0.15, 0.01, 24, r) }, sweep(16, 8))},
	{"sweep-roadgrid-12x12", 144, construction(17, func(r *rand.Rand) *graph.Graph { return graph.RoadGrid(12, 12, 0.3, 16, r) }, sweep(24, 8))},
	{"sweep-internet-n128", 128, construction(5, func(r *rand.Rand) *graph.Graph { return graph.Internet(128, 20, r) }, sweep(16, 8))},
	{"rtc-random-n48-k2", 48, construction(7, randomGraph(48, 6, 16), rtcTables(2, 0.25, 0.25, 7))},
	{"compact-random-n40-k3", 40, construction(9, randomGraph(40, 6, 12), compactTables(3, 0.25, 9))},
	{"bellmanford-random-n64", 64, construction(11, randomGraph(64, 6, 32), bellmanFord)},
	{"flooding-random-n64", 64, construction(13, randomGraph(64, 6, 32), flooding)},

	// The build pipeline: one deep (12-instance) partial sweep per
	// generator family.
	{"build_random-n256", 256, construction(31, randomGraph(256, 8, 64), sweep(32, 16))},
	{"build_powerlaw-n256", 256, construction(32, func(r *rand.Rand) *graph.Graph { return graph.BarabasiAlbert(256, 3, 64, r) }, sweep(32, 16))},
	{"build_community-n256", 256, construction(33, func(r *rand.Rand) *graph.Graph { return graph.Community(256, 4, 0.1, 0.005, 64, r) }, sweep(32, 16))},
	{"build_roadgrid-16x16", 256, construction(34, func(r *rand.Rand) *graph.Graph { return graph.RoadGrid(16, 16, 0.25, 64, r) }, sweep(32, 16))},

	// Served answers: every estimate, next hop and sampled route of the
	// compiled oracle.
	{"query_estimate-apsp-n512", 512, served(apspTables(512), estimates)},
	{"query_nexthop-apsp-n512", 512, served(apspTables(512), nextHops)},
	{"query_route-apsp-n512", 512, served(apspTables(512), routes(4096))},
	{"query_estimate-sweep-n256", 256, served(sweepTables, estimates)},

	// The tables the daemon and the fleet serve: the fingerprint every
	// answer frame is stamped with.
	{"serve_estimate-apsp-n512", 512, served(apspTables(512), generation)},
	{"serve_estimate-apsp-n256", 256, served(apspTables(256), generation)},
	{"cluster_estimate-apsp-n256", 256, served(apspTables(256), generation)},

	// The three servable schemes on one seeded graph and one query stream.
	{"scheme_oracle-random-n64", 64, schemeSurface(scheme.Spec{Topology: "random", N: 64, Eps: 0.5, MaxW: 8, Seed: 21})},
	{"scheme_rtc-random-n64-k2", 64, schemeSurface(scheme.Spec{Topology: "random", N: 64, Eps: 0.5, MaxW: 8, Seed: 21, Scheme: "rtc", K: 2, SampleProb: 0.25})},
	{"scheme_compact-random-n64-k3", 64, schemeSurface(scheme.Spec{Topology: "random", N: 64, Eps: 0.5, MaxW: 8, Seed: 21, Scheme: "compact", K: 3})},

	// Aggregate set distances on the compact (k=3) scheme.
	{"setdist_community-n256", 256, setDistances(scheme.Spec{Topology: "community", N: 256, Eps: 0.5, MaxW: 8, Seed: 21, Scheme: "compact", K: 3}, "community0", 64, 224)},
	{"setdist_roadgrid-16x16", 256, setDistances(scheme.Spec{Topology: "roadgrid", N: 256, Eps: 0.5, MaxW: 8, Seed: 21, Scheme: "compact", K: 3}, "block", 48, 128)},

	// Incremental updates: the generation a seeded churn stream ends on and
	// the work it did — eight single-edge reweights (probe > 1: localized
	// jitter), churn-mixed's shard under 32 batches of four nudges, and the
	// two §4 schemes of the scheme_ rows under eight batches of two.
	{"update_community-n512", 512, churn(scheme.Spec{Topology: "community", N: 512, Eps: 0.5, MaxW: 4096, Seed: 31, Scheme: "oracle", H: 48, Sigma: 16}, 8, 16, 0)},
	{"update_community-n256-nudge", 256, churn(scheme.Spec{Topology: "community", N: 256, Eps: 0.5, MaxW: 4096, Seed: 31, Scheme: "oracle", H: 48, Sigma: 16}, 8, 16, 4)},
	{"update_roadgrid-16x16", 256, churn(scheme.Spec{Topology: "roadgrid", N: 256, Eps: 0.5, MaxW: 1024, Seed: 31, Scheme: "oracle", H: 32, Sigma: 12}, 8, 0, 0)},
	{"update_roadgrid-n576", 576, churn(scheme.Spec{Topology: "roadgrid", N: 576, Eps: 0.5, MaxW: 1024, Seed: 1, Scheme: "oracle", H: 16, Sigma: 8}, 32, 0, 4)},
	{"update_rtc-random-n64-k2", 64, churn(scheme.Spec{Topology: "random", N: 64, Eps: 0.5, MaxW: 8, Seed: 21, Scheme: "rtc", K: 2, SampleProb: 0.25}, 8, 0, 2)},
	{"update_compact-random-n64-k3", 64, churn(scheme.Spec{Topology: "random", N: 64, Eps: 0.5, MaxW: 8, Seed: 21, Scheme: "compact", K: 3}, 8, 0, 2)},
}

func (p pin) describe(g *graph.Graph, seed int64) pin {
	p["n"], p["m"], p["seed"] = g.N(), g.M(), seed
	return p
}

// --- Constructions and builds ---------------------------------------------

// construction runs alg under both widths and fails unless they produce
// the same pin: outputs, rounds and messages may not depend on the width.
func construction(seed int64, gen generator, alg algorithm) func(*testing.T) pin {
	return func(t *testing.T) pin {
		g := gen(rng(seed))
		seq, par := alg(t, g, widths[0]), alg(t, g, widths[1])
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("pool widths 1 and 3 diverge:\n%v\n%v", seq, par)
		}
		return par.describe(g, seed)
	}
}

func costPin(active, budget int, messages, bits int64, fp uint64) pin {
	return pin{"active_rounds": active, "budget_rounds": budget, "messages": messages, "message_bits": bits, "fingerprint": hex(fp)}
}

func pdePin(res *core.Result) pin {
	p := costPin(res.ActiveRounds, res.BudgetRounds, res.Messages, res.MessageBits, res.Fingerprint())
	p["instances"] = len(res.Instances)
	return p
}

func apsp(eps float64) algorithm {
	return func(t *testing.T, g *graph.Graph, cfg congest.Config) pin {
		res, err := core.Run(g, core.APSPParams(g.N(), eps), cfg)
		noErr(t, err)
		return pdePin(res)
	}
}

// runSweep is the partial instance every sweep, build and sweep-query row
// uses: every third node a source, ε = 0.5, capped messages.
func runSweep(t *testing.T, g *graph.Graph, h, sigma int, cfg congest.Config) *core.Result {
	src := make([]bool, g.N())
	for v := 0; v < g.N(); v += 3 {
		src[v] = true
	}
	res, err := core.Run(g, core.Params{IsSource: src, H: h, Sigma: sigma, Epsilon: 0.5}, cfg)
	noErr(t, err)
	return res
}

func sweep(h, sigma int) algorithm {
	return func(t *testing.T, g *graph.Graph, cfg congest.Config) pin {
		return pdePin(runSweep(t, g, h, sigma, cfg))
	}
}

func bellmanFord(t *testing.T, g *graph.Graph, cfg congest.Config) pin {
	res, err := baseline.BellmanFordAPSP(g, cfg)
	noErr(t, err)
	f := fingerprint.New()
	for v := range res.Dist {
		for s, d := range res.Dist[v] {
			f.I64(int64(d))
			f.I64(int64(res.Parent[v][s]))
		}
	}
	m := res.Metrics
	return costPin(m.ActiveRounds, m.BudgetRounds, m.Messages, m.MessageBits, f.Sum())
}

func flooding(t *testing.T, g *graph.Graph, cfg congest.Config) pin {
	res, err := baseline.FloodingAPSP(g, cfg)
	noErr(t, err)
	f := fingerprint.New()
	for v := range res.Dist {
		for _, d := range res.Dist[v] {
			f.I64(int64(d))
		}
	}
	m := res.Metrics
	return costPin(m.ActiveRounds, m.BudgetRounds, m.Messages, m.MessageBits, f.Sum())
}

// stagesPin sums the cost of a multi-stage construction's PDE runs; its
// round budget is the scheme's own total.
func stagesPin(budget int, fp uint64, stages ...*core.Result) pin {
	var active int
	var messages, bits int64
	for _, r := range stages {
		if r != nil {
			active += r.ActiveRounds
			messages += r.Messages
			bits += r.MessageBits
		}
	}
	return costPin(active, budget, messages, bits, fp)
}

func rtcTables(k int, eps, sampleProb float64, seed int64) algorithm {
	return func(t *testing.T, g *graph.Graph, cfg congest.Config) pin {
		sch, _, err := rtc.Build(g, rtc.Params{K: k, Epsilon: eps, SampleProb: sampleProb, Seed: seed}, cfg, nil)
		noErr(t, err)
		f := fingerprint.New()
		for v := range sch.Labels {
			l := &sch.Labels[v]
			f.I64(int64(l.Node))
			f.I64(int64(l.Skel))
			f.F64(l.DistToSkel)
			f.I64(int64(sch.LabelBits(v)))
		}
		return stagesPin(sch.Rounds.Total, f.Sum(), sch.A, sch.B)
	}
}

func compactTables(k int, eps float64, seed int64) algorithm {
	return func(t *testing.T, g *graph.Graph, cfg congest.Config) pin {
		sch, _, err := compact.Build(g, compact.Params{K: k, Epsilon: eps, C: 1.5, Strategy: compact.StrategyNone, Seed: seed}, cfg, nil)
		noErr(t, err)
		f := fingerprint.New()
		var words int64
		for v := range sch.Labels {
			f.I64(int64(sch.Labels[v].Node))
			f.I64(int64(len(sch.Labels[v].Per)))
			f.I64(int64(sch.LabelBits(v)))
			words += int64(sch.TableWords(v))
		}
		f.I64(words)
		return stagesPin(sch.Rounds.Total, f.Sum(), sch.R...)
	}
}

// --- Served tables --------------------------------------------------------

// tables is one built and compiled instance.
type tables struct {
	g    *graph.Graph
	seed int64
	res  *core.Result
	o    *oracle.Oracle
}

// apspTables is the ε=1 ApproxAPSP instance on the seed-4 random graph;
// the query, serve and cluster rows (seven) answer from two builds.
var apspMemo = map[int]*tables{}

func apspTables(n int) func(*testing.T) *tables {
	return func(t *testing.T) *tables {
		if apspMemo[n] == nil {
			g := randomGraph(n, 8, 4)(rng(4))
			res, err := core.Run(g, core.APSPParams(n, 1), widths[1])
			noErr(t, err)
			apspMemo[n] = &tables{g, 4, res, oracle.Compile(res)}
		}
		return apspMemo[n]
	}
}

func sweepTables(t *testing.T) *tables {
	g := randomGraph(256, 8, 16)(rng(6))
	res := runSweep(t, g, 32, 16, widths[1])
	return &tables{g, 6, res, oracle.Compile(res)}
}

func served(build func(*testing.T) *tables, workload func(*testing.T, *tables) pin) func(*testing.T) pin {
	return func(t *testing.T) pin { return workload(t, build(t)) }
}

func (tb *tables) queryPin(queries int, f *fingerprint.Acc) pin {
	return pin{"queries": queries, "oracle_bytes": tb.o.Bytes(), "oracle_entries": tb.o.Entries(), "fingerprint": hex(f.Sum())}.
		describe(tb.g, tb.seed)
}

// allPairs digests the full n×n scan of one lookup.
func (tb *tables) allPairs(lookup func(f *fingerprint.Acc, v int, s int32)) pin {
	n := tb.g.N()
	f := fingerprint.New()
	for v := 0; v < n; v++ {
		for s := int32(0); s < int32(n); s++ {
			lookup(f, v, s)
		}
	}
	return tb.queryPin(n*n, f)
}

func flag01(ok bool) int64 {
	if ok {
		return 1
	}
	return 0
}

func estimates(_ *testing.T, tb *tables) pin {
	return tb.allPairs(func(f *fingerprint.Acc, v int, s int32) {
		e, ok := tb.o.Estimate(v, s)
		f.F64(e.Dist)
		f.I64(int64(e.Src))
		f.I64(int64(e.Via))
		f.I64(flag01(ok))
	})
}

func nextHops(_ *testing.T, tb *tables) pin {
	return tb.allPairs(func(f *fingerprint.Acc, v int, s int32) {
		next, ok := tb.o.NextHop(v, s)
		f.I64(int64(next))
		f.I64(flag01(ok))
	})
}

func routes(pairs int) func(*testing.T, *tables) pin {
	return func(t *testing.T, tb *tables) pin {
		n := tb.g.N()
		r := rng(tb.seed + 1)
		f := fingerprint.New()
		for i := 0; i < pairs; i++ {
			rt, err := tb.o.Route(tb.g, r.Intn(n), int32(r.Intn(n)))
			noErr(t, err)
			f.I64(rt.Weight)
			f.I64(int64(len(rt.Path)))
		}
		return tb.queryPin(pairs, f)
	}
}

// generation pins what a daemon (or a fleet) stamps on every answer served
// from these tables; queries is the n² stream the serve smokes fire.
func generation(_ *testing.T, tb *tables) pin {
	n := tb.g.N()
	return pin{"queries": n * n, "fingerprint": hex(tb.res.Fingerprint())}.describe(tb.g, tb.seed)
}

// --- Schemes, set distances, updates --------------------------------------

func buildScheme(t *testing.T, sp scheme.Spec) scheme.Instance {
	t.Helper()
	inst, err := scheme.Build(sp)
	noErr(t, err)
	return inst
}

// schemeSurface pins a scheme's accounting (bytes, labels, stretch, build
// rounds) and every answer of a 30000-estimate / 2000-route stream seeded
// by the graph recipe only, so the three schemes answer the same queries.
func schemeSurface(sp scheme.Spec) func(*testing.T) pin {
	const queries, pairs = 30000, 2000
	return func(t *testing.T) pin {
		inst := buildScheme(t, sp)
		g := inst.Graph()
		n := g.N()
		qrng := rng(sp.Seed + 4242)
		qs := make([]oracle.Query, queries)
		for i := range qs {
			qs[i] = oracle.Query{V: int32(qrng.Intn(n)), S: int32(qrng.Intn(n))}
		}
		out := make([]oracle.Answer, len(qs))
		inst.AnswerInto(qs, out, 2)
		f := fingerprint.New()
		answersOK := 0
		for _, ans := range out {
			f.F64(ans.Est.Dist)
			f.I64(int64(ans.Est.Via))
			f.I64(flag01(ans.OK))
			if ans.OK {
				answersOK++
			}
		}
		prng := rng(sp.Seed + 515)
		for i := 0; i < pairs; i++ {
			rt, err := inst.Route(prng.Intn(n), int32(prng.Intn(n)))
			noErr(t, err)
			f.I64(rt.Weight)
			f.I64(int64(len(rt.Path)))
		}
		p := fields(t, inst.Accounting())
		p["queries"], p["route_pairs"], p["answers_ok"], p["fingerprint"] = queries, pairs, answersOK, hex(f.Sum())
		return p.describe(g, sp.Seed)
	}
}

// setDistances pins the pruned evaluation of one seeded set pair: A is
// community 0 (node v is in community v%4) or a sample of the first
// quarter of node ids, B a graph-wide sample. identical records that the
// naive |A|×|B| loop gives the same aggregates.
func setDistances(sp scheme.Spec, mode string, sizeA, sizeB int) func(*testing.T) pin {
	return func(t *testing.T) pin {
		inst := buildScheme(t, sp)
		g := inst.Graph()
		n := g.N()
		srng := rng(sp.Seed + 9009)
		var a []int32
		if mode == "community0" {
			for v := 0; v < n; v += 4 {
				a = append(a, int32(v))
			}
			srng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			a = a[:sizeA]
		} else {
			a = make([]int32, sizeA)
			for i := range a {
				a[i] = int32(srng.Intn(n / 4))
			}
		}
		b := make([]int32, sizeB)
		for i := range b {
			b[i] = int32(srng.Intn(n))
		}
		pruned, err := setdist.Eval(inst, a, b, setdist.Options{})
		noErr(t, err)
		naive, err := setdist.Eval(inst, a, b, setdist.Options{Naive: true})
		noErr(t, err)
		f := fingerprint.New()
		for _, agg := range []setdist.Aggregates{pruned.AB, pruned.BA} {
			f.F64(agg.Chamfer)
			f.F64(agg.Hausdorff)
			f.F64(agg.MeanMin)
			f.I64(int64(agg.Members))
			f.I64(int64(agg.Unreachable))
		}
		f.F64(pruned.Hausdorff)
		f.I64(pruned.Pairs)
		f.I64(pruned.Evaluated)
		return pin{
			"scheme": inst.Scheme(), "set_mode": mode, "set_a": len(a), "set_b": len(b),
			"pairs": pruned.Pairs, "queries": pruned.Evaluated, "pruned": pruned.Pruned,
			"chamfer_ab": pruned.AB.Chamfer, "hausdorff_ab": pruned.AB.Hausdorff, "mean_min_ab": pruned.AB.MeanMin,
			"chamfer_ba": pruned.BA.Chamfer, "hausdorff_ba": pruned.BA.Hausdorff, "mean_min_ba": pruned.BA.MeanMin,
			"hausdorff":   pruned.Hausdorff,
			"identical":   pruned.AB == naive.AB && pruned.BA == naive.BA && pruned.Hausdorff == naive.Hausdorff && pruned.Pairs == naive.Pairs,
			"fingerprint": hex(f.Sum()),
		}.describe(g, sp.Seed)
	}
}

// churnStep draws one seeded single-edge ±1 reweight on g; weights stay
// in [1, maxW], so the rounding hierarchy keeps its depth. With probe > 1
// it draws probe candidates and keeps the one whose rounded lengths move
// in the fewest instances of prev (earliest draw on ties): localized
// jitter, the regime the delta path exists for.
func churnStep(g *graph.Graph, maxW graph.Weight, probe int, prev *core.Result, r *rand.Rand) graph.Change {
	edges := make([]graph.Change, 0, g.M())
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		edges = append(edges, graph.Change{Op: graph.OpReweight, U: u, V: v, W: w})
	})
	draw := func() graph.Change {
		c := edges[r.Intn(len(edges))]
		switch {
		case c.W <= 1:
			c.W++
		case c.W >= maxW:
			c.W--
		case r.Intn(2) == 0:
			c.W--
		default:
			c.W++
		}
		return c
	}
	best := draw()
	if probe <= 1 {
		return best
	}
	bestCost := len(edges) + 1 // larger than any affected count
	for i := 0; i < probe; i++ {
		c := best
		if i > 0 {
			c = draw()
		}
		g2, _, err := g.ApplyChanges([]graph.Change{c})
		if err != nil {
			continue
		}
		cost := 0
		for _, hit := range core.AffectedInstances(g2, prev) {
			if hit {
				cost++
			}
		}
		if cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

// movingNudges draws one batch of k ±1 nudges from graph.RandomChanges.
// With probe > 0 (oracle only) it draws up to probe batches and returns
// the first that moves some rounding instance of the served result; the
// update that applies it then fails the row if it re-detected none.
func movingNudges(inst scheme.Instance, k, probe int, r *rand.Rand) []graph.Change {
	g := inst.Graph()
	batch := graph.RandomChanges(g, graph.ChangeNudge, k, r)
	for i := 1; i < probe && !slices.Contains(affected(g, batch, inst), true); i++ {
		batch = graph.RandomChanges(g, graph.ChangeNudge, k, r)
	}
	return batch
}

// affected is core.AffectedInstances of the oracle instance's result on g
// with batch applied, nil for a batch that does not apply.
func affected(g *graph.Graph, batch []graph.Change, inst scheme.Instance) []bool {
	g2, _, err := g.ApplyChanges(batch)
	if err != nil {
		return nil
	}
	return core.AffectedInstances(g2, inst.(*scheme.OracleInstance).Res)
}

// churn applies a seeded stream of steps updates through scheme.Update
// and pins the generation it ends on and, summed over the stream, every
// scheme.UpdateStats counter: the work the updates did, and the last
// update's instance count. Oracle rows also sum the rows the row pass
// marked moved and the table pages it laid out again rather than shared
// with the predecessor by pointer. Each update is one churnStep reweight
// (oracle only), or with nudges > 0 that many ±1 nudges from
// graph.RandomChanges (movingNudges). That every step equals a cold
// build of its graph is FuzzDeltaChain's to show, in core and scheme, not
// this row's.
func churn(sp scheme.Spec, steps, probe, nudges int) func(*testing.T) pin {
	return func(t *testing.T) pin {
		inst := buildScheme(t, sp)
		g := inst.Graph()
		r := rng(sp.Seed + 7707)
		deltaSteps, instances, damage := 0, 0, 0.0
		rowsMoved, pagesRelaid := 0, 0
		work := map[string]float64{}
		for step := 0; step < steps; step++ {
			var batch []graph.Change
			if nudges > 0 {
				batch = movingNudges(inst, nudges, probe, r)
			} else {
				batch = []graph.Change{churnStep(inst.Graph(), graph.Weight(sp.MaxW), probe, inst.(*scheme.OracleInstance).Res, r)}
			}
			g2, sum, err := inst.Graph().ApplyChanges(batch)
			if err != nil || sum.TopologyChanged {
				t.Fatalf("step %d: reweights %+v: err %v, summary %+v", step, batch, err, sum)
			}
			next, st, err := scheme.Update(inst, g2)
			noErr(t, err)
			if nudges > 0 && probe > 0 && st.InstancesRebuilt == 0 {
				t.Fatalf("step %d: none of %d batches of nudges moved a rounding instance", step, probe)
			}
			if st.Path == "delta" {
				deltaSteps++
			}
			if sp.Scheme == "oracle" {
				prev, res := inst.(*scheme.OracleInstance).Res, next.(*scheme.OracleInstance).Res
				for v := range g2.N() {
					if res.RowMoved(v) {
						rowsMoved++
					}
				}
				for i, pg := range res.Table.Pages {
					if pg != prev.Table.Pages[i] {
						pagesRelaid++
					}
				}
			}
			damage, instances = damage+st.Damage, st.InstancesTotal
			for k, v := range fields(t, st) {
				if x, ok := v.(float64); ok && k != "damage" && k != "instances_total" {
					work[k] += x
				}
			}
			inst = next
		}
		p := pin{
			"scheme": inst.Scheme(), "instances": instances, "probe": probe, "batch": max(1, nudges),
			"updates": steps, "delta_updates": deltaSteps, "rebuild_updates": steps - deltaSteps,
			"avg_damage": damage / float64(steps), "fingerprint": hex(inst.Fingerprint()),
		}
		for k, x := range work {
			p[k] = x
		}
		if sp.Scheme == "oracle" {
			p["rows_moved"], p["pages_relaid"] = rowsMoved, pagesRelaid
		}
		return p.describe(g, sp.Seed)
	}
}

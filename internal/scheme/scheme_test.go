package scheme

import (
	"math/rand"
	"strings"
	"testing"

	"pde/internal/compact"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/rtc"
)

func compactBuildLegacy(g *graph.Graph, sp Spec) (*compact.Scheme, error) {
	return compact.Build(g, CompactParams(sp), congest.Config{Parallel: true})
}

func oracleSpec() Spec {
	return Spec{Topology: "random", N: 32, Eps: 1, MaxW: 8, Seed: 3}
}

func rtcSpec() Spec {
	return Spec{Scheme: "rtc", Topology: "random", N: 32, Eps: 0.5, MaxW: 8, Seed: 5, K: 2, SampleProb: 0.3}
}

func compactSpec() Spec {
	return Spec{Scheme: "compact", Topology: "random", N: 32, Eps: 0.5, MaxW: 8, Seed: 7, K: 3}
}

func mustBuild(t *testing.T, sp Spec) Instance {
	t.Helper()
	inst, err := Build(sp)
	if err != nil {
		t.Fatalf("Build(%+v): %v", sp, err)
	}
	return inst
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"compact", "oracle", "rtc"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if !strings.Contains(List(), "oracle") {
		t.Fatalf("List() = %q should mention oracle", List())
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		sp   Spec
		frag string
	}{
		{"scheme", Spec{Scheme: "quantum", Topology: "random", N: 8, Eps: 1, MaxW: 2}, "unknown scheme"},
		{"topology", Spec{Topology: "moebius", N: 8, Eps: 1, MaxW: 2}, "unknown topology"},
		{"n", Spec{Topology: "random", N: 1, Eps: 1, MaxW: 2}, "n must be"},
		{"eps", Spec{Topology: "random", N: 8, Eps: 0, MaxW: 2}, "eps must be"},
		{"maxw", Spec{Topology: "random", N: 8, Eps: 1, MaxW: 0}, "maxw must be"},
		{"rtc-k", Spec{Scheme: "rtc", Topology: "random", N: 8, Eps: 1, MaxW: 2, K: -1}, "k >= 1"},
		{"compact-k", Spec{Scheme: "compact", Topology: "random", N: 8, Eps: 1, MaxW: 2, K: 1}, "k >= 2"},
		{"compact-h", Spec{Scheme: "compact", Topology: "random", N: 8, Eps: 1, MaxW: 2, H: 4}, "leave them 0"},
		{"strategy", Spec{Scheme: "compact", Topology: "random", N: 8, Eps: 1, MaxW: 2, Strategy: "warp"}, "unknown strategy"},
		{"l0", Spec{Scheme: "compact", Topology: "random", N: 8, Eps: 1, MaxW: 2, K: 3, L0: 3}, "out of range"},
		{"prob", Spec{Scheme: "rtc", Topology: "random", N: 8, Eps: 1, MaxW: 2, SampleProb: 1.5}, "sample_prob"},
	}
	for _, tc := range cases {
		err := tc.sp.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.frag)
		}
	}
}

func TestNormalizedFillsDefaults(t *testing.T) {
	sp := Spec{Topology: "random", N: 8, Eps: 1, MaxW: 2}.Normalized()
	if sp.Scheme != "oracle" {
		t.Fatalf("empty scheme normalized to %q, want oracle", sp.Scheme)
	}
	sp = Spec{Scheme: "rtc", Topology: "random", N: 8, Eps: 1, MaxW: 2}.Normalized()
	if sp.K != 2 {
		t.Fatalf("rtc k normalized to %d, want 2", sp.K)
	}
	sp = Spec{Scheme: "compact", Topology: "random", N: 8, Eps: 1, MaxW: 2}.Normalized()
	if sp.K != 3 || sp.Strategy != "none" {
		t.Fatalf("compact normalized to k=%d strategy=%q, want 3/none", sp.K, sp.Strategy)
	}
}

// TestEqualTablesReportEqualSpec holds the reported spec to being the
// recipe of the tables: every spelling of a compact strategy that builds
// the same tables (equal fingerprints) reports the same Spec(), and the
// three genuinely different hierarchies stay three.
func TestEqualTablesReportEqualSpec(t *testing.T) {
	bySpec := map[uint64]Spec{}
	for _, l0 := range []int{0, 1} {
		for _, strat := range []string{"", "none", "simulate", "broadcast"} {
			sp := Spec{Scheme: "compact", Topology: "random", N: 40, Eps: 0.5, MaxW: 8, Seed: 1, K: 3, L0: l0, Strategy: strat}
			if err := sp.Validate(); err != nil {
				t.Fatalf("l0=%d strategy=%q no longer validates: %v", l0, strat, err)
			}
			inst := mustBuild(t, sp)
			first, seen := bySpec[inst.Fingerprint()]
			if !seen {
				bySpec[inst.Fingerprint()] = inst.Spec()
			} else if first != inst.Spec() {
				t.Errorf("l0=%d strategy=%q: fingerprint %016x reported as %+v and as %+v", l0, strat, inst.Fingerprint(), first, inst.Spec())
			}
			if got := inst.Spec().Normalized(); got != inst.Spec() {
				t.Errorf("l0=%d strategy=%q: reported spec %+v is not a fixed point of Normalized (%+v)", l0, strat, inst.Spec(), got)
			}
		}
	}
	if len(bySpec) != 3 {
		t.Fatalf("8 spellings built %d distinct tables, want 3 (none, simulate, broadcast)", len(bySpec))
	}
}

// TestOracleInstanceMatchesLegacyOracle pins the oracle backend to the
// pre-registry serving path: same core.Run tables, same compiled-oracle
// answers, same fingerprint.
func TestOracleInstanceMatchesLegacyOracle(t *testing.T) {
	sp := oracleSpec()
	inst := mustBuild(t, sp)
	g, err := sp.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(g, sp.Params(g.N()), congest.Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Fingerprint() != res.Fingerprint() {
		t.Fatalf("instance fingerprint %016x != legacy result %016x", inst.Fingerprint(), res.Fingerprint())
	}
	o := oracle.Compile(res)
	n := g.N()
	qs := make([]oracle.Query, 0, n*n)
	for v := 0; v < n; v++ {
		for s := 0; s < n; s++ {
			qs = append(qs, oracle.Query{V: int32(v), S: int32(s)})
		}
	}
	out := make([]oracle.Answer, len(qs))
	inst.AnswerInto(qs, out, 3)
	for i, q := range qs {
		e, ok := o.Estimate(int(q.V), q.S)
		want := oracle.Answer{OK: ok}
		if ok {
			want.Est = e
		}
		if out[i] != want {
			t.Fatalf("query %d (%d,%d): instance %+v != legacy %+v", i, q.V, q.S, out[i], want)
		}
	}
	rtr := core.NewRouterWith(g, res, o)
	for v := 0; v < n; v += 5 {
		for s := int32(0); s < int32(n); s += 7 {
			want, werr := rtr.Route(v, s)
			got, gerr := inst.Route(v, s)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("route %d->%d: legacy err %v, instance err %v", v, s, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if got.Weight != want.Weight || len(got.Path) != len(want.Path) {
				t.Fatalf("route %d->%d diverges: %+v vs %+v", v, s, got, want)
			}
		}
	}
}

// TestRTCInstanceMatchesLegacyScheme pins the rtc backend's answers —
// estimates, first hops and full routes — bit-identically to the legacy
// in-process rtc package built from the same recipe.
func TestRTCInstanceMatchesLegacyScheme(t *testing.T) {
	sp := rtcSpec()
	inst := mustBuild(t, sp)
	legacy := buildLegacyRTC(t, sp)
	if got, want := inst.Fingerprint(), legacy.Fingerprint(); got != want {
		t.Fatalf("instance fingerprint %016x != legacy %016x", got, want)
	}
	n := inst.Graph().N()
	qs := make([]oracle.Query, 0, n*n)
	for v := 0; v < n; v++ {
		for s := 0; s < n; s++ {
			qs = append(qs, oracle.Query{V: int32(v), S: int32(s)})
		}
	}
	out := make([]oracle.Answer, len(qs))
	inst.AnswerInto(qs, out, 4)
	for i, q := range qs {
		dst := legacy.Labels[q.S]
		d, err := legacy.DistEstimate(int(q.V), dst)
		if (err == nil) != out[i].OK {
			t.Fatalf("query (%d,%d): legacy err %v, instance OK %v", q.V, q.S, err, out[i].OK)
		}
		if err != nil {
			continue
		}
		if out[i].Est.Dist != d {
			t.Fatalf("query (%d,%d): instance dist %g != legacy %g", q.V, q.S, out[i].Est.Dist, d)
		}
		next, _, herr := legacy.NextHop(int(q.V), dst)
		wantVia := int32(-1)
		if herr == nil {
			wantVia = int32(next)
		}
		if out[i].Est.Via != wantVia {
			t.Fatalf("query (%d,%d): instance via %d != legacy %d", q.V, q.S, out[i].Est.Via, wantVia)
		}
	}
	for v := 0; v < n; v += 3 {
		for s := int32(0); s < int32(n); s += 5 {
			want, werr := legacy.Route(v, legacy.Labels[s])
			got, gerr := inst.Route(v, s)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("route %d->%d: legacy err %v, instance err %v", v, s, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if got.Weight != want.Weight || len(got.Path) != len(want.Path) {
				t.Fatalf("route %d->%d diverges", v, s)
			}
			for i := range got.Path {
				if got.Path[i] != want.Path[i] {
					t.Fatalf("route %d->%d path diverges at hop %d", v, s, i)
				}
			}
		}
	}
}

func buildLegacyRTC(t *testing.T, sp Spec) *rtc.Scheme {
	t.Helper()
	g, err := sp.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := rtc.Build(g, RTCParams(sp), congest.Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	return legacy
}

// TestCompactInstanceMatchesLegacyScheme is the compact twin of the rtc
// differential test.
func TestCompactInstanceMatchesLegacyScheme(t *testing.T) {
	sp := compactSpec()
	inst := mustBuild(t, sp)
	g, err := sp.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := compactBuildLegacy(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inst.Fingerprint(), legacy.Fingerprint(); got != want {
		t.Fatalf("instance fingerprint %016x != legacy %016x", got, want)
	}
	n := g.N()
	qs := make([]oracle.Query, 0, n*n)
	for v := 0; v < n; v++ {
		for s := 0; s < n; s++ {
			qs = append(qs, oracle.Query{V: int32(v), S: int32(s)})
		}
	}
	out := make([]oracle.Answer, len(qs))
	inst.AnswerInto(qs, out, 4)
	for i, q := range qs {
		dst := legacy.Labels[q.S]
		d, err := legacy.DistEstimate(int(q.V), dst)
		if (err == nil) != out[i].OK {
			t.Fatalf("query (%d,%d): legacy err %v, instance OK %v", q.V, q.S, err, out[i].OK)
		}
		if err != nil {
			continue
		}
		if out[i].Est.Dist != d {
			t.Fatalf("query (%d,%d): instance dist %g != legacy %g", q.V, q.S, out[i].Est.Dist, d)
		}
		// Hop is -1 when no first forwarding hop exists.
		if wantVia := legacy.Answer(int(q.V), dst).Hop; out[i].Est.Via != wantVia {
			t.Fatalf("query (%d,%d): instance via %d != legacy %d", q.V, q.S, out[i].Est.Via, wantVia)
		}
	}
	for v := 0; v < n; v += 3 {
		for s := int32(0); s < int32(n); s += 5 {
			want, werr := legacy.Route(v, legacy.Labels[s])
			got, gerr := inst.Route(v, s)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("route %d->%d: legacy err %v, instance err %v", v, s, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if got.Weight != want.Weight || len(got.Path) != len(want.Path) {
				t.Fatalf("route %d->%d diverges", v, s)
			}
		}
	}
}

// TestAnswerIntoWidthInvariance pins that the batch fan-out width never
// changes an answer, for every backend.
func TestAnswerIntoWidthInvariance(t *testing.T) {
	for _, sp := range []Spec{oracleSpec(), rtcSpec(), compactSpec()} {
		inst := mustBuild(t, sp)
		n := inst.Graph().N()
		rng := rand.New(rand.NewSource(99))
		qs := make([]oracle.Query, 500)
		for i := range qs {
			qs[i] = oracle.Query{V: int32(rng.Intn(n)), S: int32(rng.Intn(n))}
		}
		seq := make([]oracle.Answer, len(qs))
		par := make([]oracle.Answer, len(qs))
		inst.AnswerInto(qs, seq, 1)
		inst.AnswerInto(qs, par, 7)
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("%s: answer %d differs between widths: %+v vs %+v", sp.Scheme, i, seq[i], par[i])
			}
		}
	}
}

// TestAnswerIntoOutOfRangeIsMiss pins the bounds contract for every
// backend: transports validate query ids against the snapshot they
// answer from, and should one ever not — the hot-swap shrink race — an
// out-of-range id must answer as a miss, never panic (the oracle backend
// inherits this from Oracle.find's bounds guard; rtc/compact enforce it
// in answer()).
func TestAnswerIntoOutOfRangeIsMiss(t *testing.T) {
	for _, sp := range []Spec{oracleSpec(), rtcSpec(), compactSpec()} {
		inst := mustBuild(t, sp)
		n := int32(inst.Graph().N())
		qs := []oracle.Query{
			{V: 0, S: n + 5},
			{V: n + 5, S: 0},
			{V: -1, S: 0},
			{V: 0, S: -1},
		}
		out := make([]oracle.Answer, len(qs))
		inst.AnswerInto(qs, out, 2)
		for i, a := range out {
			if a.OK {
				t.Errorf("%s: out-of-range query %d answered OK: %+v", inst.Scheme(), i, a)
			}
		}
	}
}

// TestAccountingPopulated checks every backend reports a sane cost sheet.
func TestAccountingPopulated(t *testing.T) {
	for _, sp := range []Spec{oracleSpec(), rtcSpec(), compactSpec()} {
		inst := mustBuild(t, sp)
		a := inst.Accounting()
		if a.Scheme != inst.Scheme() {
			t.Errorf("%s: accounting names scheme %q", inst.Scheme(), a.Scheme)
		}
		if a.TableBytes <= 0 || a.Entries <= 0 {
			t.Errorf("%s: empty tables in accounting: %+v", a.Scheme, a)
		}
		if a.MaxLabelBits <= 0 || a.AvgLabelBits <= 0 {
			t.Errorf("%s: no label accounting: %+v", a.Scheme, a)
		}
		if a.ProbeRoutes == 0 || a.MeasuredStretch < 1 {
			t.Errorf("%s: no measured stretch: %+v", a.Scheme, a)
		}
		if a.MeasuredStretch > a.StretchBound+0.5 {
			t.Errorf("%s: measured stretch %.3f above bound %.1f+o(1)", a.Scheme, a.MeasuredStretch, a.StretchBound)
		}
		if a.BuildRounds <= 0 {
			t.Errorf("%s: no build rounds: %+v", a.Scheme, a)
		}
	}
}

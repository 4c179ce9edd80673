package scheme

import (
	"math"
	"math/rand"
	"testing"

	"pde/internal/oracle"
)

func randomQueries(n, count int, seed int64) []oracle.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]oracle.Query, count)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(rng.Intn(n)), S: int32(rng.Intn(n))}
	}
	return qs
}

// TestAllocsPerRunAnswerIntoInline holds the one-worker batch path of the
// expensive-estimate backends allocation-free: the pruned set-distance
// evaluation and the wire layer both answer through AnswerInto(…, 1),
// hundreds of small batches per request in the former's case.
func TestAllocsPerRunAnswerIntoInline(t *testing.T) {
	for _, sp := range []Spec{compactSpec(), rtcSpec()} {
		inst := mustBuild(t, sp)
		qs := randomQueries(inst.Graph().N(), 16, 1)
		out := make([]oracle.Answer, len(qs))
		if allocs := testing.AllocsPerRun(100, func() { inst.AnswerInto(qs, out, 1) }); allocs != 0 {
			t.Errorf("%s: AnswerInto(qs, out, 1) allocates %.2f objects/op, want 0", inst.Scheme(), allocs)
		}
	}
}

// distsWithinSpecs are the backends DistsWithin is held on: oracle, rtc,
// and compact untruncated and truncated under both strategies (the
// truncated levels answer through the skeleton potential, not a row).
func distsWithinSpecs() []Spec {
	simulate, broadcast := compactSpec(), compactSpec()
	simulate.L0 = 1
	broadcast.L0, broadcast.Strategy = 1, "broadcast"
	return []Spec{oracleSpec(), rtcSpec(), compactSpec(), simulate, broadcast}
}

// TestDistsWithinContract holds the bounded answer to its contract on
// every (v, s) pair and a few out-of-range ids: below ub the distance is
// bit-identical to AnswerInto's (+Inf for a miss), at or above ub it is
// only required to be ≥ ub. The bounds sit on either side of each exact
// value, so a backend that prunes one ulp too eagerly fails.
func TestDistsWithinContract(t *testing.T) {
	for _, sp := range distsWithinSpecs() {
		inst := mustBuild(t, sp)
		n := int32(inst.Graph().N())
		qs := []oracle.Query{{V: -1, S: 0}, {V: 0, S: n}}
		for v := int32(0); v < n; v++ {
			for s := int32(0); s < n; s++ {
				qs = append(qs, oracle.Query{V: v, S: s})
			}
		}
		ans := make([]oracle.Answer, len(qs))
		inst.AnswerInto(qs, ans, 1)
		name := sp.Scheme + "/" + inst.Spec().Strategy
		var got [1]float64
		for i, q := range qs {
			exact := math.Inf(1)
			if ans[i].OK {
				exact = ans[i].Est.Dist
			}
			for _, ub := range []float64{math.Inf(1), exact, math.Nextafter(exact, math.Inf(1)), math.Nextafter(exact, 0), 0} {
				inst.DistsWithin(qs[i:i+1], ub, got[:])
				if exact < ub && math.Float64bits(got[0]) != math.Float64bits(exact) {
					t.Fatalf("%s: DistsWithin(%+v, ub=%g) = %g, AnswerInto says %g", name, q, ub, got[0], exact)
				}
				if exact >= ub && !(got[0] >= ub) {
					t.Fatalf("%s: DistsWithin(%+v, ub=%g) = %g below the bound, but the answer %g is not", name, q, ub, got[0], exact)
				}
			}
		}
		// A batch answers each query as it would alone.
		batch := make([]float64, len(qs))
		inst.DistsWithin(qs, math.Inf(1), batch)
		for i := range qs {
			if ans[i].OK && batch[i] != ans[i].Est.Dist || !ans[i].OK && !math.IsInf(batch[i], 1) {
				t.Fatalf("%s: batched DistsWithin[%d] = %g, AnswerInto says %+v", name, i, batch[i], ans[i])
			}
		}
	}
}

// TestAllocsPerRunDistsWithin holds the bounded answer allocation-free
// on every backend: the pruned set-distance evaluation calls it for every
// batch of candidates, hundreds per request.
func TestAllocsPerRunDistsWithin(t *testing.T) {
	for _, sp := range distsWithinSpecs() {
		inst := mustBuild(t, sp)
		qs := randomQueries(inst.Graph().N(), 16, 1)
		out := make([]float64, len(qs))
		for _, ub := range []float64{math.Inf(1), 4} {
			if allocs := testing.AllocsPerRun(100, func() { inst.DistsWithin(qs, ub, out) }); allocs != 0 {
				t.Errorf("%s/%s: DistsWithin(qs, %g, out) allocates %.2f objects/op, want 0", sp.Scheme, inst.Spec().Strategy, ub, allocs)
			}
		}
	}
}

// BenchmarkCompactAnswer times one compact answer — distance, level
// selection and first hop — on the instance the aggregate-mix workload
// of record serves (benchmark/main.go), 4096 uniform queries a pass.
func BenchmarkCompactAnswer(b *testing.B) {
	inst, err := Build(Spec{Scheme: "compact", K: 3, Topology: "community", N: 256, Eps: 0.5, MaxW: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	qs := randomQueries(inst.Graph().N(), 4096, 2)
	out := make([]oracle.Answer, len(qs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.AnswerInto(qs, out, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/answer")
}

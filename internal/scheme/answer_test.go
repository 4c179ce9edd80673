package scheme

import (
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

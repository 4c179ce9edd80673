package detection

import (
	"testing"

	"pde/internal/congest"
	"pde/internal/graph"
)

// BenchmarkRun is one sequential Run on the first rounding instance of
// the build-dense and build-sparse benchmark specs (community n=512 and
// roadgrid n=1024; see weightInstance). The
// paper charges detection per announcement (Lemma 3.4), so that is the
// unit reported: ns/announcement counts what every unit, relay cells
// included, announced — not only the boundary crossings in Messages.
func BenchmarkRun(b *testing.B) {
	for _, c := range []struct {
		name, topology string
		n              int
	}{
		{"dense", "community", 512},
		{"sparse", "roadgrid", 1024},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, p := weightInstance(b, c.topology, c.n, 1)
			announced := announcements(b, g, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, p, congest.Config{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(announced), "ns/announcement")
		})
	}
}

// announcements runs p once and counts what every unit announced: the
// real nodes' SelfEmits plus the relay cells' counters, read from the
// arena the run left behind.
func announcements(tb testing.TB, g *graph.Graph, p Params) int64 {
	var a Arena
	res, err := a.Run(g, p, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var total int64
	for _, s := range res.SelfEmits {
		total += int64(s)
	}
	for i := range a.cells {
		total += int64(a.cells[i].sentCnt)
	}
	return total
}

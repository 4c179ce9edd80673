package pde

import (
	"testing"

	"pde/internal/bench"
)

// BenchmarkExperiments regenerates each reproduced table/figure at Quick
// scale, one sub-benchmark per table ID; `go run ./cmd/pde-experiments`
// prints the Full-scale tables.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(bench.Quick)
			}
		})
	}
}

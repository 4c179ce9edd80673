package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// This file is the single source of truth for the named topology families
// the CLI (pde-serve), the serving specs
// (internal/scheme.Spec) and the benchmark sweeps accept. Before it
// existed the name list and the per-family parameterization were
// duplicated in three switch statements that drifted independently; now a
// family is added here once and every surface — flag docs, Validate error
// messages, graph construction — picks it up.

// Generator builds one named topology family. N is the requested node
// count; grid-shaped families round it up to the next perfect square, so
// callers must read the actual size off the returned graph.
type Generator func(n int, maxW Weight, rng *rand.Rand) *Graph

// generators maps each family name to its canonical parameterization.
// The knobs (edge densities, community counts, obstacle fractions) are
// the ones the serving specs have always used; scenario-specific
// densities stay with their scenarios.
var generators = map[string]Generator{
	"random": func(n int, maxW Weight, rng *rand.Rand) *Graph {
		return RandomConnected(n, 8.0/float64(n), maxW, rng)
	},
	"grid": func(n int, maxW Weight, rng *rand.Rand) *Graph {
		side := gridSide(n)
		return Grid(side, side, maxW, rng)
	},
	"internet": func(n int, maxW Weight, rng *rand.Rand) *Graph {
		return Internet(n, maxW, rng)
	},
	"ring": func(n int, maxW Weight, rng *rand.Rand) *Graph {
		return Ring(n, maxW, rng)
	},
	"powerlaw": func(n int, maxW Weight, rng *rand.Rand) *Graph {
		return BarabasiAlbert(n, 3, maxW, rng)
	},
	"community": func(n int, maxW Weight, rng *rand.Rand) *Graph {
		return Community(n, 4, 0.15, 0.01, maxW, rng)
	},
	"roadgrid": func(n int, maxW Weight, rng *rand.Rand) *Graph {
		side := gridSide(n)
		return RoadGrid(side, side, 0.3, maxW, rng)
	},
}

func gridSide(n int) int {
	side := 1
	for side*side < n {
		side++
	}
	return side
}

// generatorNames returns the sorted topology family names.
func generatorNames() []string {
	names := make([]string, 0, len(generators))
	for name := range generators {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// GeneratorList renders the family names for error messages:
// "community | grid | internet | ...".
func GeneratorList() string { return strings.Join(generatorNames(), " | ") }

// IsGenerator reports whether name is a known topology family.
func IsGenerator(name string) bool {
	_, ok := generators[name]
	return ok
}

// Generate builds the named family, deterministic in the rng stream. The
// error message is the one every caller shows for an unknown topology.
func Generate(topology string, n int, maxW Weight, rng *rand.Rand) (*Graph, error) {
	gen, ok := generators[topology]
	if !ok {
		return nil, fmt.Errorf("unknown topology %q (want %s)", topology, GeneratorList())
	}
	return gen(n, maxW, rng), nil
}

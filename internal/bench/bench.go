// Package bench holds the paper-reproduction experiments and the
// golden-pin test.
//
// The experiment harness (experiments.go) has one runner per paper
// claim, each producing a markdown table of paper-predicted vs.
// measured values; the cmd/pde-experiments binary and the root
// bench_test.go both drive these runners.
//
// pins_test.go holds every deterministic output of 28 seeded scenarios to
// the exact values in testdata/pins.json. Nothing in this package reports
// a wall clock: those numbers come from the benchmark/ module only
// (docs/benchmarks.md).
package bench

import (
	"fmt"
	"math"
	"strings"
)

// Table is one experiment's result table.
type Table struct {
	ID     string
	Title  string
	Ref    string // paper reference (theorem / figure)
	Header []string
	Rows   [][]string
	Notes  []string
}

// Markdown renders the table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Paper reference: %s*\n\n", t.Ref)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteString("\n")
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func d64(v int64) string  { return fmt.Sprintf("%d", v) }

func log2(x float64) float64 { return math.Log2(x) }

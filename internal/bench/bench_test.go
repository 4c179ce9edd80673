package bench

import (
	"strings"
	"testing"
)

func TestAllExperimentsProduceTables(t *testing.T) {
	if len(Experiments) != 10 {
		t.Fatalf("got %d experiments, want 10", len(Experiments))
	}
	seen := make(map[string]bool)
	for _, e := range Experiments {
		tb := e.Run(Quick)
		if tb.ID != e.ID || tb.Title == "" || tb.Ref == "" {
			t.Fatalf("experiment %q: table %q missing metadata", e.ID, tb.ID)
		}
		if seen[tb.ID] {
			t.Fatalf("duplicate table id %q", tb.ID)
		}
		seen[tb.ID] = true
		if len(tb.Rows) == 0 {
			t.Fatalf("table %s has no rows", tb.ID)
		}
		for i, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Fatalf("table %s row %d has %d cells for %d columns", tb.ID, i, len(row), len(tb.Header))
			}
		}
		md := tb.Markdown()
		if !strings.Contains(md, tb.Title) || !strings.Contains(md, "|") {
			t.Fatalf("table %s renders badly:\n%s", tb.ID, md)
		}
	}
}

func TestMarkdownEscapesNothingWeird(t *testing.T) {
	tb := &Table{
		ID: "X", Title: "T", Ref: "R",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note"},
	}
	md := tb.Markdown()
	for _, want := range []string{"### X — T", "| a | b |", "| 1 | 2 |", "- note"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

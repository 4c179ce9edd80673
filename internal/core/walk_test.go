package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"pde/internal/graph"
)

// TestWalk is the hop loop's table: the one place a route is walked, so
// the one place arrival, a forwarding error and the three routing bugs it
// reports (self-forward, a hop that is no edge, a loop) are pinned.
func TestWalk(t *testing.T) {
	b := graph.NewBuilder(4) // path 0 -2- 1 -3- 2 -5- 3
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 3, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lost := errors.New("table has no entry")
	up := func(cur int) (int, error) { return cur + 1, nil }
	cases := []struct {
		name     string
		v, dst   int
		maxSteps int
		next     func(cur int) (int, error)
		path     []int
		weight   graph.Weight
		is       error  // the error next returned, passed through
		frag     string // or a fragment of Walk's own report
	}{
		{name: "arrival", v: 0, dst: 3, maxSteps: 8, next: up, path: []int{0, 1, 2, 3}, weight: 10},
		{name: "already there", v: 2, dst: 2, maxSteps: 0, next: nil, path: []int{2}},
		{name: "exactly the cap", v: 0, dst: 3, maxSteps: 2, next: up, path: []int{0, 1, 2, 3}, weight: 10},
		{name: "next fails", v: 0, dst: 3, maxSteps: 8, next: func(cur int) (int, error) {
			if cur == 1 {
				return 0, lost
			}
			return cur + 1, nil
		}, is: lost},
		{name: "self-forward", v: 0, dst: 3, maxSteps: 8, next: func(cur int) (int, error) { return cur, nil }, frag: "node 0 returned itself"},
		{name: "non-edge hop", v: 0, dst: 3, maxSteps: 8, next: func(cur int) (int, error) { return 3, nil }, frag: "next hop 3 is not a neighbor of 0"},
		{name: "step cap", v: 0, dst: 3, maxSteps: 5, next: func(cur int) (int, error) { return cur ^ 1, nil }, frag: "exceeded 5 steps"},
	}
	for _, tc := range cases {
		rt, err := Walk(g, tc.v, tc.dst, tc.maxSteps, tc.next)
		switch {
		case tc.is != nil:
			if err != tc.is {
				t.Errorf("%s: err = %v, want next's own error back", tc.name, err)
			}
		case tc.frag != "":
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.frag)
			}
		case err != nil || !slices.Equal(rt.Path, tc.path) || rt.Weight != tc.weight:
			t.Errorf("%s: route %+v, %v; want path %v weight %d", tc.name, rt, err, tc.path, tc.weight)
		}
		if err != nil && rt.Path != nil {
			t.Errorf("%s: failed walk still returned path %v", tc.name, rt.Path)
		}
	}
}

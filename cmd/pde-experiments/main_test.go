package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives every subcommand at a tiny size, and the table mode at
// its smallest selection, through the same run() main calls.
func TestRun(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want []string // substrings of stdout
		err  string   // substring of stderr
	}{
		{name: "tables", args: []string{"-quick", "-only", "E3"},
			want: []string{"### E3 — Lower-bound gadget", "| 4 | 4 | 21 | 16 | 21 | 191 | 3.03 |"}},
		{name: "apsp", args: []string{"apsp", "-n", "16", "-baselines"},
			want: []string{"graph: random n=16", "PDE APSP:", "bound=1.50", "BellmanFord:", "Flooding:"}},
		{name: "apsp internet", args: []string{"apsp", "-n", "16", "-topology", "internet", "-eps", "1"},
			want: []string{"graph: internet n=16", "bound=2.00"}},
		{name: "rtc", args: []string{"rtc", "-n", "24", "-trees"},
			want: []string{"graph: random n=24", "rounds: short-range=", "bound(6k-1)=11", "trees: "}},
		{name: "compact", args: []string{"compact", "-n", "24", "-k", "2"},
			want: []string{"graph: random n=24", "level 1: |S_1| =", "bound(4k-3)=5", "shared"}},
		{name: "figure1", args: []string{"figure1", "-h", "3", "-sigma", "2"},
			want: []string{"gadget: h=3 σ=2", "exact detection: first-correct round=", "PDE (ε=1.00):"}},
		{name: "pdesweep", args: []string{"pdesweep", "-n", "24"},
			want: []string{"h | σ | ε | budget rounds | active rounds", "40 | 40 | 1.00 |"}},
		{name: "pdesweep messages", args: []string{"pdesweep", "-n", "24", "-messages"},
			want: []string{"σ | max broadcasts/node", "32 | "}},

		{name: "unknown experiment", args: []string{"-only", "E42"}, code: 2, err: `unknown experiment "E42"`},
		{name: "unknown topology", args: []string{"apsp", "-topology", "torus"}, code: 2, err: `unknown topology "torus"`},
		{name: "scheme build fails", args: []string{"rtc", "-topology", "torus"}, code: 1, err: "torus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.code, &stderr)
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, &stdout)
				}
			}
			if !strings.Contains(stderr.String(), tc.err) {
				t.Errorf("stderr lacks %q:\n%s", tc.err, &stderr)
			}
		})
	}
}

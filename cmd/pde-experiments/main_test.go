package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the table mode at its smallest selection, and the bad
// invocations it refuses, through the same run() main calls. The former
// one-construction subcommands are refused before any table runs rather
// than falling through to every Full-scale table.
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

		{name: "unknown experiment", args: []string{"-only", "E42"}, code: 2, err: `unknown experiment "E42"`},
		{name: "positional experiment", args: []string{"-quick", "E3"}, code: 2, err: `unexpected argument "E3"`},
		{name: "apsp", args: []string{"apsp", "-n", "16"}, code: 2, err: `unexpected argument "apsp"`},
		{name: "rtc", args: []string{"rtc", "-n", "24", "-trees"}, code: 2, err: `unexpected argument "rtc"`},
		{name: "compact", args: []string{"compact", "-n", "24", "-k", "2"}, code: 2, err: `unexpected argument "compact"`},
		{name: "figure1", args: []string{"figure1", "-h", "3", "-sigma", "2"}, code: 2, err: `unexpected argument "figure1"`},
		{name: "pdesweep", args: []string{"pdesweep", "-n", "24"}, code: 2, err: `unexpected argument "pdesweep"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.code, &stderr)
			}
			if tc.code != 0 && stdout.Len() > 0 {
				t.Errorf("a refused invocation printed tables:\n%s", &stdout)
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

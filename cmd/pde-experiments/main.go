// Command pde-experiments reproduces the paper's results from the command
// line. With no subcommand it regenerates every experiment table in
// EXPERIMENTS.md — one table per theorem/figure, each showing
// paper-predicted against measured values. A subcommand (demos.go) runs
// one construction at one configuration and prints its accounting.
//
//	pde-experiments [-quick] [-only E3]
//	pde-experiments apsp     [-n 80] [-eps 0.5] [-maxw 32] [-topology random|geometric|internet] [-seed 1] [-baselines]
//	pde-experiments rtc      [-topology random] [-n 60] [-k 2] [-eps 0.25] [-maxw 16] [-p 0.25] [-seed 1] [-trees]
//	pde-experiments compact  [-topology random] [-n 50] [-k 3] [-l0 0] [-strategy none|simulate|broadcast] [-maxw 12] [-seed 1]
//	pde-experiments figure1  [-h 8] [-sigma 8] [-eps 1]
//	pde-experiments pdesweep [-n 100] [-maxw 32] [-seed 1] [-messages]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"pde/internal/bench"
)

// usageError marks a bad invocation (exit 2, not a failed run's 1).
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

var subcommands = map[string]func(args []string, out io.Writer) error{
	"apsp":     apsp,
	"rtc":      rtcTables,
	"compact":  compactTables,
	"figure1":  figure1,
	"pdesweep": pdeSweep,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cmd := func(args []string, out io.Writer) error { return tables(args, out, stderr) }
	if len(args) > 0 && subcommands[args[0]] != nil {
		cmd, args = subcommands[args[0]], args[1:]
	}
	err := cmd(args, stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "pde-experiments:", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// tables prints the E1–E9 tables as markdown, each as soon as it is
// done, with a progress line per table on stderr.
func tables(args []string, out, progress io.Writer) error {
	fs := flag.NewFlagSet("pde-experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run the reduced-scale configuration")
	only := fs.String("only", "", "run only the experiment with this ID (e.g. E3)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	scale := bench.Full
	if *quick {
		scale = bench.Quick
	}
	var known []string
	for _, e := range bench.Experiments {
		known = append(known, e.ID)
		if *only == "" || *only == e.ID {
			fmt.Fprint(out, e.Run(scale).Markdown())
		}
		if *only == "" {
			fmt.Fprintln(progress, strings.Repeat("-", 20), e.ID, "done")
		}
	}
	if *only != "" && !slices.Contains(known, *only) {
		return usageError{fmt.Errorf("unknown experiment %q; known: %s", *only, strings.Join(known, " "))}
	}
	return nil
}

// Command pde-experiments reproduces the paper's results from the command
// line: it prints every experiment table (E1–E9) — one per theorem or
// figure, each showing paper-predicted against measured values.
//
//	pde-experiments [-quick] [-only E3]
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run exits 0 on success or -h and 2 on a bad invocation, the only way
// the tables can fail.
func run(args []string, stdout, stderr io.Writer) int {
	err := tables(args, stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "pde-experiments:", err)
	return 2
}

// tables prints the E1–E9 tables as markdown, each as soon as it is
// done, with a progress line per table on stderr.
func tables(args []string, out, progress io.Writer) error {
	fs := flag.NewFlagSet("pde-experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run the reduced-scale configuration")
	only := fs.String("only", "", "run only the experiment with this ID (e.g. E3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q; select a table with -only", fs.Arg(0))
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
		return fmt.Errorf("unknown experiment %q; known: %s", *only, strings.Join(known, " "))
	}
	return nil
}

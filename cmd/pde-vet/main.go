// Command pde-vet runs the repo's static-analysis suite (see
// internal/analysis and docs/analysis.md): six analyzers proving the
// determinism, hot-swap, wire-layout, +Inf-unreachable, error-envelope
// and allocation-free hot-path invariants at build time.
//
// Two modes:
//
//	pde-vet [flags] [packages]     standalone multichecker (default ./...)
//	go vet -vettool=bin/pde-vet    unit-checker backend driven by cmd/go
//
// Standalone mode loads the module (and its dependency closure, from
// source — no export data or network needed) via `go list -json -deps`
// and analyzes every module package. In vettool mode cmd/go invokes the
// binary once per package with a JSON config file; the protocol
// (-V=full, -flags, *.cfg) is implemented in unitchecker.go.
//
// Exit status: 0 clean, 1 findings (2 in vettool mode, matching
// x/tools' unitchecker), 3 usage or load errors.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pde/internal/analysis"
)

// printVersion answers cmd/go's `-V=full` probe. The line must be
// "<name> version devel ... buildID=<hex>" (the shape cmd/go's toolID
// parser accepts for unreleased tools); hashing our own executable makes
// the vet build cache invalidate whenever the analyzers change.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("pde-vet version devel comments-go-here buildID=%02x\n", h.Sum(nil))
}

func main() {
	// cmd/go's vettool protocol probes before any normal flag parsing:
	// `pde-vet -V=full` must print a version line, `pde-vet -flags` the
	// supported analyzer flags, and a trailing *.cfg argument selects
	// unit-checker mode.
	args := os.Args[1:]
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			printVersion()
			return
		}
	}
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		fmt.Println("[]")
		return
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		os.Exit(unitcheck(args[n-1]))
	}

	fs := flag.NewFlagSet("pde-vet", flag.ExitOnError)
	var (
		list        = fs.Bool("list", false, "list analyzers and exit")
		only        = fs.String("only", "", "comma-separated analyzer names to run (default all)")
		showAllowed = fs.Bool("show-allowed", false, "also print findings suppressed by //pde:allow")
		dir         = fs.String("C", ".", "run as if started in this directory")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pde-vet [flags] [package patterns]\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "pde-vet: unknown analyzer %q\n", name)
				os.Exit(3)
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, fset, err := analysis.LoadModule(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pde-vet: %v\n", err)
		os.Exit(3)
	}
	loadErrs := 0
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "pde-vet: %s: %v\n", p.PkgPath, e)
			loadErrs++
		}
	}
	if loadErrs > 0 {
		os.Exit(3)
	}

	diags := analysis.AnalyzePackages(analyzers, pkgs, fset)
	exit := 0
	for _, d := range diags {
		if d.Suppressed {
			if *showAllowed {
				fmt.Println(d)
			}
			continue
		}
		fmt.Println(d)
		exit = 1
	}
	os.Exit(exit)
}

// Package analysis is the repo's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, diagnostics) plus the six analyzers that
// mechanically enforce the coding invariants every differential
// test in this repo otherwise only samples:
//
//   - determinism:    no map-iteration order, wall clocks or unseeded
//     randomness feeding the deterministic build outputs
//   - atomicswap:     hot-swapped tables are touched only through their
//     atomic.Pointer methods
//   - wireframe:      binary codec records use fixed-width fields and
//     their declared byte sizes match the field layout
//   - infconvention:  unreachable distances are math.Inf(1), never a
//     negative sentinel
//   - errenvelope:    HTTP handlers emit errors only through the shared
//     {"error":{code,message}} envelope helper
//   - hotpathalloc:   //pde:hotpath-marked serving functions contain no
//     allocating constructs (append, make, string<->[]byte conversions)
//
// The package's non-test code is the analyzers; its one driver is
// TestRepoIsVetClean, so `go test ./...` runs the suite over every
// non-test file of the module (vet_clean_test.go; the loader and the
// runner are driver_test.go). It is stdlib-only by design: the module
// has no dependencies, so the x/tools analysis framework is out of reach
// and this package carries the minimal slice of it the six analyzers
// need.
//
// # Escape hatch
//
// A diagnostic is suppressed by a //pde:allow(<analyzer>) comment on the
// flagged line or on the line directly above it. Every allow is expected
// to carry a justification; docs/analysis.md catalogues the syntax and
// the audited allows in the tree. Suppressed findings are still reported
// (Diagnostic.Suppressed), so TestRepoIsVetClean can hold their inventory
// and log each one under -v.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check. The zero Scope means the
// analyzer applies to every package it is run over; otherwise Scope
// gates on the package import path (suffix-matched on path segments).
type Analyzer struct {
	Name  string
	Doc   string
	Scope func(pkgPath string) bool
	Run   func(*Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	allow allowIndex
	sink  *[]Diagnostic
}

// Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks findings matched by a //pde:allow comment; the
	// driver counts them against the audited inventory, not as failures.
	Suppressed bool
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
	if d.Suppressed {
		s += " (suppressed by //pde:allow)"
	}
	return s
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Reportf records a finding at pos, applying //pde:allow suppression.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	d := Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	}
	if p.allow.allows(position.Filename, position.Line, p.Analyzer.Name) {
		d.Suppressed = true
	}
	*p.sink = append(*p.sink, d)
}

// allowIndex maps file → line → set of analyzer names allowed there.
type allowIndex map[string]map[int]map[string]bool

func (ai allowIndex) allows(file string, line int, analyzer string) bool {
	lines := ai[file]
	if lines == nil {
		return false
	}
	// The allow may sit on the flagged line itself or directly above it.
	for _, l := range [2]int{line, line - 1} {
		if set := lines[l]; set != nil && (set[analyzer] || set["all"]) {
			return true
		}
	}
	return false
}

// scopeSuffix builds a Scope predicate matching import paths that end in
// (or contain, as a path segment prefix) one of the given suffixes —
// "internal/core" matches both "pde/internal/core" and
// "pde/internal/core/sub".
func scopeSuffix(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if path == s || strings.HasSuffix(path, "/"+s) ||
				strings.Contains(path, "/"+s+"/") || strings.HasPrefix(path, s+"/") {
				return true
			}
		}
		return false
	}
}

// inspectStack walks every file, calling fn with each node and the stack
// of its ancestors (outermost first, not including n itself). Returning
// false prunes the subtree.
func inspectStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			ok := fn(n, stack)
			if ok {
				stack = append(stack, n)
			}
			return ok
		})
	}
}

// pkgPathOf returns the import path of the package an object belongs to,
// or "" for builtins and universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

package analysis

// analysistest-style golden harness: each testdata/<analyzer>/ directory
// is one fixture package; a `// want `+"`regex`"+`` comment marks the
// line a diagnostic must appear on, and every diagnostic must be
// matched by a want. The fixtures type-check against the real standard
// library (and pde/internal/fingerprint), loaded from source once per
// test process via the same loader the driver uses.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	goldenOnce  sync.Once
	goldenFset  *token.FileSet
	goldenTyped map[string]*types.Package
	goldenErr   error
)

// goldenUniverse loads every package the fixtures import, shared across
// the golden tests.
func goldenUniverse(t *testing.T) (*token.FileSet, map[string]*types.Package) {
	t.Helper()
	goldenOnce.Do(func() {
		goldenFset = token.NewFileSet()
		_, goldenTyped, goldenErr = loadClosure(goldenFset, ".", []string{
			"bytes", "encoding/binary", "encoding/json", "math", "math/rand", "net/http",
			"sort", "sync/atomic", "time",
			"pde/internal/fingerprint",
		})
	})
	if goldenErr != nil {
		t.Fatalf("loading golden import universe: %v", goldenErr)
	}
	return goldenFset, goldenTyped
}

var wantRx = regexp.MustCompile("// want (`([^`]+)`|\"([^\"]+)\")")

type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// runGolden type-checks testdata/<dir> as package path pkgPath, runs the
// analyzer, and verifies the diagnostics against the // want comments.
// It returns the suppressed findings so callers can assert on the
// //pde:allow behavior.
func runGolden(t *testing.T, a *Analyzer, dir, pkgPath string) []Diagnostic {
	t.Helper()
	fset, typed := goldenUniverse(t)

	root := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	var expects []*expectation
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(root, e.Name())
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		af, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, af)
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRx.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern := m[2]
			if pattern == "" {
				pattern = m[3]
			}
			rx, err := regexp.Compile(pattern)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", name, i+1, err)
			}
			expects = append(expects, &expectation{file: name, line: i + 1, rx: rx})
		}
	}

	tpkg, info, errs := TypeCheckFiles(fset, pkgPath, files, mapImporter{typed: typed}, true)
	for _, e := range errs {
		t.Errorf("type error in fixture: %v", e)
	}
	if t.Failed() {
		t.Fatalf("fixture %s does not type-check", dir)
	}

	diags := RunAnalyzers([]*Analyzer{a}, fset, pkgPath, files, tpkg, info)
	var suppressed []Diagnostic
	for _, d := range diags {
		if d.Suppressed {
			suppressed = append(suppressed, d)
			continue
		}
		found := false
		for _, e := range expects {
			if !e.matched && e.file == d.Pos.Filename && e.line == d.Pos.Line && e.rx.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.rx)
		}
	}
	return suppressed
}

func TestDeterminismGolden(t *testing.T) {
	suppressed := runGolden(t, Determinism, "determinism", "pde/internal/core")
	if len(suppressed) != 1 {
		t.Errorf("want exactly 1 //pde:allow-suppressed finding in the fixture, got %d", len(suppressed))
	}
}

func TestDeterminismScope(t *testing.T) {
	// The same fixture analyzed under an out-of-scope import path must
	// produce nothing: determinism applies to the build packages only.
	fset, typed := goldenUniverse(t)
	var files []*ast.File
	entries, _ := os.ReadDir(filepath.Join("testdata", "determinism"))
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			af, err := parser.ParseFile(fset, filepath.Join("testdata", "determinism", e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, af)
		}
	}
	tpkg, info, _ := TypeCheckFiles(fset, "example.com/outside/bench", files, mapImporter{typed: typed}, true)
	if diags := RunAnalyzers([]*Analyzer{Determinism}, fset, "example.com/outside/bench", files, tpkg, info); len(diags) != 0 {
		t.Errorf("determinism fired outside its scope: %v", diags)
	}
}

func TestAtomicSwapGolden(t *testing.T) {
	runGolden(t, AtomicSwap, "atomicswap", "pde/internal/server")
}

func TestErrEnvelopeGolden(t *testing.T) {
	suppressed := runGolden(t, ErrEnvelope, "errenvelope", "pde/internal/server")
	if len(suppressed) != 1 {
		t.Errorf("want exactly 1 suppressed finding (the envelope helper), got %d", len(suppressed))
	}
}

func TestWireFrameGolden(t *testing.T) {
	runGolden(t, WireFrame, "wireframe", "pde/internal/server")
}

func TestHotPathAllocGolden(t *testing.T) {
	// Every package that carries //pde:hotpath markers is in scope.
	for _, pkg := range []string{"pde/internal/wire", "pde/internal/oracle", "pde/internal/server", "pde/internal/detection"} {
		suppressed := runGolden(t, HotPathAlloc, "hotpathalloc", pkg)
		if len(suppressed) != 1 {
			t.Errorf("%s: want exactly 1 //pde:allow-suppressed finding in the fixture, got %d", pkg, len(suppressed))
		}
	}
}

func TestHotPathAllocScope(t *testing.T) {
	// The same fixture analyzed under an out-of-scope import path must
	// produce nothing: the marker contract is enforced only where the
	// allocation guards run (internal/wire, internal/oracle,
	// internal/server, internal/detection).
	fset, typed := goldenUniverse(t)
	var files []*ast.File
	entries, _ := os.ReadDir(filepath.Join("testdata", "hotpathalloc"))
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			af, err := parser.ParseFile(fset, filepath.Join("testdata", "hotpathalloc", e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, af)
		}
	}
	tpkg, info, _ := TypeCheckFiles(fset, "pde/internal/cluster", files, mapImporter{typed: typed}, true)
	if diags := RunAnalyzers([]*Analyzer{HotPathAlloc}, fset, "pde/internal/cluster", files, tpkg, info); len(diags) != 0 {
		t.Errorf("hotpathalloc fired outside its scope: %v", diags)
	}
}

func TestInfConventionGolden(t *testing.T) {
	suppressed := runGolden(t, InfConvention, "infconvention", "pde/internal/setdist")
	if len(suppressed) != 1 {
		t.Errorf("want exactly 1 suppressed finding (the annotated sentinel), got %d", len(suppressed))
	}
}

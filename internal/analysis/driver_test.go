package analysis

// The suite's one driver. loadClosure type-checks packages from source;
// runAnalyzers applies analyzers to one of them. TestRepoIsVetClean runs
// the whole suite over the module with them, and the golden tests run
// one analyzer over a testdata fixture.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked module package as the analyzers see it.
type Package struct {
	PkgPath string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects go/types errors; analysis still runs on
	// whatever type information was recovered.
	TypeErrors []error
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// loadClosure loads and type-checks the packages matched by patterns in
// the module rooted at dir, resolving the entire dependency closure from
// source via `go list -json -deps`. It needs no network and no pre-built
// export data: dependencies (in this module's case, only the standard
// library) are type-checked with IgnoreFuncBodies, ~1.5 s for the whole
// closure. It returns the module packages for analysis — their GoFiles,
// so test files are never analyzed — plus every type-checked package,
// dependencies included, which the golden tests use as the import
// universe for their fixtures.
func loadClosure(fset *token.FileSet, dir string, patterns []string) ([]*Package, map[string]*types.Package, error) {
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// CGO_ENABLED=0 keeps the closure pure Go so every dependency is
	// type-checkable from its .go sources alone.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var listed []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listPackage)
		if err := dec.Decode(p); err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		listed = append(listed, p)
	}

	typed := map[string]*types.Package{"unsafe": types.Unsafe}
	var pkgs []*Package
	// go list -deps emits dependencies before dependents, so a single
	// forward pass sees every import already checked.
	for _, lp := range listed {
		if lp.ImportPath == "unsafe" {
			continue
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		inModule := !lp.Standard && lp.Module != nil
		var files []*ast.File
		for _, name := range lp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, fmt.Errorf("parse %s: %v", name, err)
			}
			files = append(files, af)
		}
		imp := mapImporter{importMap: lp.ImportMap, typed: typed}
		tpkg, info, errs := typeCheckFiles(fset, lp.ImportPath, files, imp, inModule)
		typed[lp.ImportPath] = tpkg
		if inModule {
			pkgs = append(pkgs, &Package{
				PkgPath:    lp.ImportPath,
				Files:      files,
				Types:      tpkg,
				Info:       info,
				TypeErrors: errs,
			})
		} else if len(errs) > 0 {
			return nil, nil, fmt.Errorf("type-checking dependency %s: %v", lp.ImportPath, errs[0])
		}
	}
	return pkgs, typed, nil
}

// mapImporter resolves imports against already-type-checked packages,
// applying a go list ImportMap (vendored stdlib paths) first.
type mapImporter struct {
	importMap map[string]string
	typed     map[string]*types.Package
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if r, ok := m.importMap[path]; ok {
		path = r
	}
	if tp, ok := m.typed[path]; ok && tp != nil {
		return tp, nil
	}
	return nil, fmt.Errorf("package %s not loaded", path)
}

// typeCheckFiles type-checks one package. full=false checks signatures
// only (IgnoreFuncBodies) — enough to import from, much faster, and the
// mode every dependency is checked in. full=true records the complete
// types.Info the analyzers need.
func typeCheckFiles(fset *token.FileSet, pkgPath string, files []*ast.File, imp types.Importer, full bool) (*types.Package, *types.Info, []error) {
	var errs []error
	conf := types.Config{
		Importer:         imp,
		IgnoreFuncBodies: !full,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		Error:            func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, _ := conf.Check(pkgPath, fset, files, info)
	return tpkg, info, errs
}

// runAnalyzers applies every analyzer whose scope takes pkgPath to the
// package and returns the findings (suppressed ones included, flagged as
// such) sorted by position.
func runAnalyzers(analyzers []*Analyzer, fset *token.FileSet, pkgPath string, files []*ast.File, tpkg *types.Package, info *types.Info) []Diagnostic {
	allow := buildAllowIndex(fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Scope != nil && !a.Scope(pkgPath) {
			continue
		}
		a.Run(&Pass{Analyzer: a, Fset: fset, Files: files, Pkg: tpkg, Info: info, allow: allow, sink: &diags})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// allowRx matches the escape hatch: //pde:allow(name) or
// //pde:allow(name1,name2). Anything after the closing paren is the
// justification and is free-form.
var allowRx = regexp.MustCompile(`pde:allow\(([A-Za-z0-9_, ]+)\)`)

func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	ai := allowIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := ai[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					ai[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = map[string]bool{}
					lines[pos.Line] = set
				}
				for _, name := range strings.Split(m[1], ",") {
					set[strings.TrimSpace(name)] = true
				}
			}
		}
	}
	return ai
}

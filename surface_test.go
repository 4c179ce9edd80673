package pde

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The surface pin: every knob the module offers from the outside — each
// flag of the cmd/ binaries, each exported field of the structs callers
// and request bodies fill (Config, Options, Spec, Params, *Request under
// internal/), each path on the daemon's and the coordinator's mux — and
// every name a client reads back — each PDE2 frame kind with its code,
// each JSON key of the /v1/stats and /v1/update replies — read off the
// source with go/parser and compared with testdata/surface.golden.
// "This PR adds no flag or field" is then a golden diff, not a sentence:
// a new knob fails here until `go test -run TestSurface -update .` is run
// and the diff committed, which puts it in front of the reviewer.

const surfaceFile = "testdata/surface.golden"

var updateSurface = flag.Bool("update", false, "rewrite "+surfaceFile+" from the source")

var (
	flagMethod    = regexp.MustCompile(`^(String|Int|Int64|Uint|Uint64|Float64|Bool|Duration)(Var)?$|^(Var|Func|BoolFunc|TextVar)$`)
	surfaceStruct = regexp.MustCompile(`^(Config|Options|Spec|Params|.*Request)$`)
)

// surface renders the module's five lists, with their counts first.
func surface(t *testing.T) string {
	t.Helper()
	var flags, fields, paths, frames, stats []string
	decls := map[string]ast.Expr{} // "pkg.Type" -> its type expression, for the stats walk
	fset := token.NewFileSet()

	walkSource(t, fset, "cmd", false, func(pkg string, f *ast.File) {
		var fn string // the enclosing function, which owns the flag set
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			m := flagMethod.FindStringSubmatch(sel.Sel.Name)
			if m == nil {
				return true
			}
			// (name, default, usage) for the typed forms, after the target
			// for their Var twins; Var and Func carry no default.
			args := call.Args
			if strings.HasSuffix(sel.Sel.Name, "Var") && len(args) > 0 {
				args = args[1:]
			}
			if len(args) < 2 {
				return true
			}
			lit, ok := args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			def := "-"
			if m[1] != "" && len(args) == 3 {
				def = types.ExprString(args[1])
			}
			flags = append(flags, fmt.Sprintf("flag %s %s -%s %s %s", pkg, fn, name, strings.TrimSuffix(sel.Sel.Name, "Var"), def))
			return true
		})
	})

	walkSource(t, fset, "internal", false, func(pkg string, f *ast.File) {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				decls[f.Name.Name+"."+ts.Name.Name] = ts.Type
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !surfaceStruct.MatchString(ts.Name.Name) {
					continue
				}
				for _, fld := range st.Fields.List {
					tag := ""
					if fld.Tag != nil {
						raw, _ := strconv.Unquote(fld.Tag.Value)
						if j, ok := reflect.StructTag(raw).Lookup("json"); ok {
							tag = ` json:"` + j + `"`
						}
					}
					names := fld.Names
					if len(names) == 0 { // embedded
						names = []*ast.Ident{{Name: types.ExprString(fld.Type)}}
					}
					for _, id := range names {
						if ast.IsExported(strings.TrimPrefix(id.Name, "*")) {
							fields = append(fields, fmt.Sprintf("field %s.%s %s %s%s", pkg, ts.Name.Name, id.Name, types.ExprString(fld.Type), tag))
						}
					}
				}
			}
		}
	})

	for _, pkg := range []string{"internal/server", "internal/cluster"} {
		walkSource(t, fset, pkg, false, func(pkg string, f *ast.File) {
			// A path is a literal first argument, or the loop variable of
			// a range over a literal slice of them.
			ranged := map[string][]ast.Expr{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					if v, ok := n.Value.(*ast.Ident); ok {
						if lit, ok := n.X.(*ast.CompositeLit); ok {
							ranged[v.Name] = lit.Elts
						}
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || (sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle") || len(n.Args) != 2 {
						return true
					}
					exprs := []ast.Expr{n.Args[0]}
					if id, ok := n.Args[0].(*ast.Ident); ok && ranged[id.Name] != nil {
						exprs = ranged[id.Name]
					}
					for _, e := range exprs {
						lit, ok := e.(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							t.Fatalf("%s: %s registers a path this test cannot read (%s); write it as a literal", fset.Position(n.Pos()), sel.Sel.Name, types.ExprString(e))
						}
						p, _ := strconv.Unquote(lit.Value)
						paths = append(paths, fmt.Sprintf("path %s %s", pkg, p))
					}
				}
				return true
			})
		})
	}

	walkSource(t, fset, "internal/wire", false, func(_ string, f *ast.File) {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "FrameType" {
						continue
					}
					for i, id := range vs.Names {
						frames = append(frames, fmt.Sprintf("frame wire.%s %s", id.Name, types.ExprString(vs.Values[i])))
					}
				}
			}
		}
	})

	// The /v1/stats and /v1/update replies, key by key: every field of
	// StatsResponse and UpdateResponse and of each struct they nest,
	// following named types across packages.
	var reply string
	var walkStats func(key, pkg string, typ ast.Expr)
	walkStats = func(key, pkg string, typ ast.Expr) {
		switch x := typ.(type) {
		case *ast.StarExpr:
			walkStats(key, pkg, x.X)
		case *ast.ArrayType:
			walkStats(key+"[]", pkg, x.Elt)
		case *ast.MapType:
			walkStats(key+".*", pkg, x.Value)
		case *ast.Ident:
			if d, ok := decls[pkg+"."+x.Name]; ok {
				walkStats(key, pkg, d)
			}
		case *ast.SelectorExpr:
			if d, ok := decls[types.ExprString(x)]; ok {
				walkStats(key, types.ExprString(x.X), d)
			}
		case *ast.StructType:
			for _, fld := range x.Fields.List {
				raw := ""
				if fld.Tag != nil {
					raw, _ = strconv.Unquote(fld.Tag.Value)
				}
				name, _, _ := strings.Cut(reflect.StructTag(raw).Get("json"), ",")
				if len(fld.Names) == 0 && name == "" { // embedded: encoding/json flattens it
					walkStats(key, pkg, fld.Type)
				}
				for _, id := range fld.Names {
					if !ast.IsExported(id.Name) || name == "-" {
						continue
					}
					k := name
					if k == "" {
						k = id.Name
					}
					k = strings.TrimPrefix(key+"."+k, ".")
					stats = append(stats, fmt.Sprintf("stat %s %s %s", reply, k, types.ExprString(fld.Type)))
					walkStats(k, pkg, fld.Type)
				}
			}
		}
	}
	for _, r := range [][2]string{{"/v1/stats", "StatsResponse"}, {"/v1/update", "UpdateResponse"}} {
		before := len(stats)
		reply = r[0]
		walkStats("", "server", &ast.Ident{Name: r[1]})
		if len(stats) == before {
			t.Fatalf("server.%s not found under internal/", r[1])
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# flags %d  fields %d  paths %d  frames %d  stats %d\n", len(flags), len(fields), len(paths), len(frames), len(stats))
	for _, list := range [][]string{flags, fields, paths, frames, stats} {
		b.WriteString(strings.Join(list, "\n"))
		b.WriteString("\n")
	}
	return b.String()
}

// walkSource parses every .go file under root, the _test.go files only
// when tests is set, and hands it to visit with its directory. Like the go
// tool, it skips directories whose names begin with a dot (build caches).
func walkSource(t *testing.T, fset *token.FileSet, root string, tests bool, visit func(pkg string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSurface(t *testing.T) {
	got := surface(t)
	if *updateSurface {
		if err := os.MkdirAll(filepath.Dir(surfaceFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(surfaceFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatalf("%v; run go test -run TestSurface -update .", err)
	}
	if bytes.Equal(want, []byte(got)) {
		return
	}
	// Report the multiset difference line by line, then how to accept it.
	count := map[string]int{}
	for _, l := range strings.Split(string(want), "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l]--; count[l] < 0 {
			t.Errorf("not in %s: %s", surfaceFile, l)
		}
	}
	for _, l := range strings.Split(string(want), "\n") {
		if count[l] > 0 {
			count[l] = 0
			t.Errorf("gone from the source: %s", l)
		}
	}
	t.Errorf("the module's surface moved; if that is the point of the change, run go test -run TestSurface -update . and commit the diff")
}

// TestExportsHaveCallers is the export rule: every exported top-level
// function of package pde and of each package under internal/ is named by
// a non-test file outside its own package — in the root module (cmd/,
// examples/ and internal/ included) or in benchmark/. A reference is a
// selector on the package's import, whatever the file calls it, so a
// call, a map entry or a func-typed field all count. An export nothing
// outside the tests names is an orphan: delete it, unexport it, or move
// it into the test files that use it. The rule holds for unexported
// top-level functions under internal/ too, inside their package: each is
// named by a non-test file of it (as an identifier, not as a field or
// method selector), or it belongs in the tests.
func TestExportsHaveCallers(t *testing.T) {
	// The one remainder: graph generators that other packages' tests build
	// their fixtures with, while production reaches the families it serves
	// through graph.Generate, and the change-batch generator their delta
	// tests draw from.
	pinned := map[string]string{
		"graph.Grid":           "rows×cols grids in congest, core, oracle, spanner and pin fixtures",
		"graph.Torus":          "a wrap-around grid in core's pool-width tests",
		"graph.Ring":           "the high-diameter cycle in congest's and core's engine tests",
		"graph.Path":           "the diameter-n line in congest, core, detection and rtc edge cases",
		"graph.Star":           "the one-hub degree extreme in congest's inbox and bandwidth tests",
		"graph.RandomTree":     "spanning trees for treelabel's routing and congest's engine tests",
		"graph.BarabasiAlbert": "power-law graphs at chosen m in core's width tests and the pins",
		"graph.Community":      "community graphs at chosen k, pIn, pOut in core's width tests and the pins",
		"graph.RoadGrid":       "road grids at chosen obstacle fractions in core's width tests and the pins",
		"graph.RandomChanges":  "seeded change batches for the delta tests, FuzzDeltaChain in core and scheme, and the update pins",
	}

	fset := token.NewFileSet()
	var exports [][2]string                                // "pkg.Name", "import/path.Name"
	named := map[bool]map[string]bool{false: {}, true: {}} // by test file: "import/path.Name"
	var helpers []string                                   // "dir.name" of every unexported top-level function under internal/
	local := map[string]bool{}                             // "dir.name" of every identifier a non-test file under internal/ names
	walkSource(t, fset, ".", true, func(dir string, f *ast.File) {
		if strings.Contains(dir+"/", "/testdata/") {
			return
		}
		test := strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go")
		if !test && (dir == "." || strings.HasPrefix(dir, "internal/")) {
			path := strings.TrimSuffix("pde/"+dir, "/.")
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					exports = append(exports, [2]string{f.Name.Name + "." + fd.Name.Name, path + "." + fd.Name.Name})
				}
			}
		}
		if !test && strings.HasPrefix(dir, "internal/") {
			skip := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					skip[fd.Name] = true
					if fd.Recv == nil && !fd.Name.IsExported() && fd.Name.Name != "init" {
						helpers = append(helpers, dir+"."+fd.Name.Name)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					skip[n.Sel] = true
				case *ast.Ident:
					if !skip[n] {
						local[dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
		imports := map[string]string{} // local name -> import path
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
					named[test][imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	})
	for _, e := range exports {
		name, ref := e[0], e[1]
		_, pin := pinned[name]
		switch {
		case pin && named[false][ref]:
			t.Errorf("%s is pinned as a test fixture but has a non-test caller; drop its pin", name)
		case pin && !named[true][ref]:
			t.Errorf("%s is pinned as a test fixture but no test outside its package uses it; unexport it and drop its pin", name)
		case !pin && !named[false][ref]:
			t.Errorf("%s has no non-test reference outside its package", name)
		}
	}
	for _, h := range helpers {
		if !local[h] {
			t.Errorf("%s is unexported and no non-test file of its package names it", h)
		}
	}
	t.Logf("%d exported top-level functions, %d pinned; %d unexported ones under internal/", len(exports), len(pinned), len(helpers))
}

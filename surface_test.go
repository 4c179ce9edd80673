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
// internal/), each path on the daemon's and the coordinator's mux — read
// off the source with go/parser and compared with testdata/surface.golden.
// "This PR adds no flag or field" is then a golden diff, not a sentence:
// a new knob fails here until `go test -run TestSurface -update .` is run
// and the diff committed, which puts it in front of the reviewer.

const surfaceFile = "testdata/surface.golden"

var updateSurface = flag.Bool("update", false, "rewrite "+surfaceFile+" from the source")

var (
	flagMethod    = regexp.MustCompile(`^(String|Int|Int64|Uint|Uint64|Float64|Bool|Duration)(Var)?$|^(Var|Func|BoolFunc|TextVar)$`)
	surfaceStruct = regexp.MustCompile(`^(Config|Options|Spec|Params|.*Request)$`)
)

// surface renders the module's three lists, with their counts first.
func surface(t *testing.T) string {
	t.Helper()
	var flags, fields, paths []string
	fset := token.NewFileSet()
	walk := func(root string, visit func(pkg string, f *ast.File)) {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
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

	walk("cmd", func(pkg string, f *ast.File) {
		var fn string // the enclosing function: pde-experiments has a flag set per subcommand
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

	walk("internal", func(pkg string, f *ast.File) {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
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
		walk(pkg, func(pkg string, f *ast.File) {
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

	var b strings.Builder
	fmt.Fprintf(&b, "# flags %d  fields %d  paths %d\n", len(flags), len(fields), len(paths))
	for _, list := range [][]string{flags, fields, paths} {
		b.WriteString(strings.Join(list, "\n"))
		b.WriteString("\n")
	}
	return b.String()
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

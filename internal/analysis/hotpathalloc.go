package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the zero-allocation contract of the hot paths: a
// function marked with a //pde:hotpath doc comment is part of the
// steady-state frame loop of the PDE2 wire protocol, the server's frame
// handlers, the oracle's answer path, a scheme's bounded set-distance
// answer or a detection or engine round, whose allocation promises are guarded end-to-end by testing.AllocsPerRun
// tests. An allocation that sneaks
// into one of these functions — an append, a make, a string<->[]byte
// conversion — turns the serving path GC-bound long before a human
// reads the benchmark again, so the analyzer flags the allocating
// construct the moment it is written. Buffer growth belongs in an
// unmarked helper (Batch.ensure, Conn.ensureWbuf, Pipeline.ensureRbuf,
// detection's unit.grow): the marker — and therefore the rule —
// deliberately does not reach it.
//
// Function literals declared inside a marked function are checked too:
// they run on the same hot path, and the closure itself is a second
// allocation the marker exists to keep out.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "//pde:hotpath functions must not allocate " +
		"(append, make, string<->[]byte conversions)",
	Scope: scopeSuffix("internal/wire", "internal/oracle", "internal/server", "internal/detection", "internal/congest", "internal/scheme", "internal/compact"),
	Run:   runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPathMarked(fd) {
				continue
			}
			checkHotPathBody(pass, fd.Name.Name, fd.Body)
		}
	}
}

func isHotPathMarked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "pde:hotpath" {
			return true
		}
	}
	return false
}

func checkHotPathBody(pass *Pass, name string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fun, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok {
				switch b.Name() {
				case "append":
					pass.Reportf(call.Pos(),
						"append in //pde:hotpath function %s can grow and allocate per frame (write into a pre-sized buffer, or grow in an unmarked ensure helper)", name)
				case "make":
					pass.Reportf(call.Pos(),
						"make in //pde:hotpath function %s allocates per call (hoist the buffer into an arena or an unmarked ensure helper)", name)
				}
				return true
			}
		}
		// Allocating conversions: string([]byte|[]rune) and
		// []byte|[]rune(string) copy their contents on every call.
		if len(call.Args) != 1 {
			return true
		}
		tv, ok := pass.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		from := pass.TypeOf(call.Args[0])
		if from == nil {
			return true
		}
		if conv := allocatingConversion(from, tv.Type); conv != "" {
			pass.Reportf(call.Pos(),
				"%s conversion in //pde:hotpath function %s copies and allocates (keep the original representation on the hot path)", conv, name)
		}
		return true
	})
}

// allocatingConversion names the conversion when it copies memory:
// string from a byte/rune slice, or a byte/rune slice from a string.
// Anything else ("" result) is representation-free.
func allocatingConversion(from, to types.Type) string {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	byteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	switch {
	case isStr(to) && byteOrRuneSlice(from):
		return "slice-to-string"
	case byteOrRuneSlice(to) && isStr(from):
		return "string-to-slice"
	}
	return ""
}

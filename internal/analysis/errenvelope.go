package analysis

import (
	"go/ast"
	"go/types"
)

// ErrEnvelope enforces the serving layer's error contract: every error
// response out of internal/server is the JSON envelope
// {"error":{"code","message"}} with a machine-readable code — that is
// what the e2e suite, server.Client and the docs/serving.md schemas all
// parse. A handler calling http.Error or writing a bare error status via
// WriteHeader bypasses the envelope and hands clients an unparseable
// body, so both are flagged anywhere in a package whose import path ends
// in internal/server. The envelope helper itself (WriteError) performs
// the one legitimate WriteHeader call and carries the
// //pde:allow(errenvelope) annotation.
var ErrEnvelope = &Analyzer{
	Name: "errenvelope",
	Doc: "HTTP errors leave internal/server only through the shared " +
		"WriteError envelope helper",
	Scope: scopeSuffix("internal/server"),
	Run:   runErrEnvelope,
}

func runErrEnvelope(pass *Pass) {
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil {
			return true
		}
		if pkgPathOf(fn) == "net/http" && fn.Name() == "Error" &&
			fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(call.Pos(),
				"http.Error bypasses the {\"error\":{code,message}} envelope; use the WriteError helper")
			return true
		}
		if fn.Name() == "WriteHeader" && recvIsResponseWriter(fn) {
			pass.Reportf(call.Pos(),
				"bare WriteHeader in a handler bypasses the error envelope; use the WriteError helper (//pde:allow(errenvelope) inside the helper itself)")
		}
		return true
	})
}

// recvIsResponseWriter reports whether fn is a method whose receiver is
// the net/http.ResponseWriter interface (handlers hold the interface, so
// this is the type every w.WriteHeader call resolves through).
func recvIsResponseWriter(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := sig.Recv().Type().(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "ResponseWriter" && pkgPathOf(named.Obj()) == "net/http"
}

package analysis

import (
	"go/ast"
	"go/types"
)

// errSinkScope lists the packages that serialise durable artefacts (.gkx
// indexes, graph files, matrix sections). A dropped write error there
// produces a truncated file that the loader rejects much later, far from
// the cause — or worse, silently serves stale data after a failed save.
var errSinkScope = map[string]bool{
	"gkmeans":                   true,
	"gkmeans/internal/knngraph": true,
	"gkmeans/internal/store":    true,
	"gkmeans/internal/vec":      true,
	"gkmeans/internal/wal":      true,
}

// errSinkCallees are the write-path functions and methods whose error
// results must not be discarded in persist packages. Method names match on
// any receiver: every Write/WriteTo/WriteSection/Flush in these packages is
// a serialisation step.
var errSinkMethods = map[string]bool{
	"Write":        true,
	"WriteTo":      true,
	"WriteSection": true,
	"WriteMatrix":  true,
	"WriteRows":    true,
	"Flush":        true,
}

// ErrSink flags discarded error results on the persistence write path:
// a binary.Write / (io.Writer).Write / Flush call used as a bare statement,
// or with its error assigned to the blank identifier.
var ErrSink = &Analyzer{
	Name: "errsink",
	Doc: "persistence writes must not discard their error results\n\n" +
		"In the .gkx/graph/matrix serialisation packages, every Write,\n" +
		"WriteTo, WriteSection, WriteMatrix, WriteRows, Flush and\n" +
		"encoding/binary call returns an error that must be propagated; a\n" +
		"discarded error turns an I/O failure into a silently truncated\n" +
		"artefact.",
	Run: runErrSink,
}

func runErrSink(pass *Pass) error {
	if !errSinkScope[pass.Pkg.Path()] {
		return nil
	}
	info := pass.TypesInfo
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isWriteCall(info, call) {
				pass.Reportf(call.Pos(), "result of %s is discarded; persistence write errors must be propagated", calleeName(call))
			}
		case *ast.AssignStmt:
			// _ = w.Write(...) or n, _ := w.Write(...): the error lands in
			// the blank identifier.
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !isWriteCall(info, call) {
				return true
			}
			if last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && last.Name == "_" {
				pass.Reportf(call.Pos(), "error of %s assigned to _; persistence write errors must be propagated", calleeName(call))
			}
		}
		return true
	})
	return nil
}

// isWriteCall reports whether the call is an error-returning write-path
// call: anything in encoding/binary, or a method/function from
// errSinkMethods whose last result is an error.
func isWriteCall(info *types.Info, call *ast.CallExpr) bool {
	if _, ok := isConversion(info, call); ok {
		return false
	}
	name := calleeName(call)
	pkgPath := calleePkgPath(info, call)
	if pkgPath == "encoding/binary" && (name == "Write" || name == "Read") {
		return lastResultIsError(info, call)
	}
	if !errSinkMethods[name] {
		return false
	}
	return lastResultIsError(info, call)
}

// lastResultIsError reports whether the call's final result is of type
// error.
func lastResultIsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[ast.Expr(call)]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if t.Len() == 0 {
			return false
		}
		return isErrorType(t.At(t.Len() - 1).Type())
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

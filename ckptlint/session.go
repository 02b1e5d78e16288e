package ckptlint

import "go/ast"

// Session-protocol awareness shared by the analyzers.
//
// The epoch commit/abort protocol (ckpt.Session) is part of the
// checkpointing contract: Session.Abort / AbortAll / Ack re-mark the
// modified flag of every object a failed epoch touched. Code in an abort path may therefore rewrite
// tracked state without a visible per-owner SetModified (dirtywrite), and
// a Fold that wraps child traversal in abort/retry control flow defeats
// the linear child extraction (recordfold). Both analyzers treat protocol
// calls as fulfilling the contract instead of reporting false positives.

// remarkingMethods are the Session methods that (may) re-mark cleared
// flags: Abort and AbortAll always, Ack on its error path.
var remarkingMethods = map[string]bool{
	"Abort": true, "AbortAll": true, "Ack": true,
}

// protocolMethods are all Session methods that drive the commit/abort
// protocol.
var protocolMethods = map[string]bool{
	"Abort": true, "AbortAll": true, "Ack": true,
	"Commit": true, "Observe": true,
}

// sessionMethodCall reports whether call invokes one of the given methods
// on a ckpt.Session receiver.
func sessionMethodCall(pkg *Package, call *ast.CallExpr, methods map[string]bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !methods[sel.Sel.Name] {
		return false
	}
	tv, ok := pkg.Info.Types[sel.X]
	return ok && isCkptNamed(tv.Type, "Session")
}

// remarksClearedFlags reports whether call re-marks modified flags through
// the abort protocol.
func remarksClearedFlags(pkg *Package, call *ast.CallExpr) bool {
	return sessionMethodCall(pkg, call, remarkingMethods)
}

// usesSessionProtocol reports whether fd's body contains any epoch
// commit/abort protocol call.
func usesSessionProtocol(pkg *Package, fd *ast.FuncDecl) bool {
	return containsNode(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && sessionMethodCall(pkg, call, protocolMethods)
	})
}

// containsNode reports whether pred holds for some node under root.
func containsNode(root ast.Node, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		found = found || n != nil && pred(n)
		return !found
	})
	return found
}

package ckptlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ickpt/internal/bta"
)

// dirtyWriteAnalyzer flags direct writes to tracked checkpointable state —
// ckpt.Cell .V fields and `ckpt:"..."`-tagged struct fields — that bypass
// modification tracking. Such writes leave the owning object's modified
// flag clear, so the next incremental checkpoint silently omits the change:
// the exact stale-checkpoint corruption the paper's write barriers exist to
// prevent.
//
// A write is accepted when the dirty bit is provably maintained or
// irrelevant:
//
//   - it occurs inside a Record or Restore protocol method (restore-time
//     state is by definition already captured);
//   - the same function calls owner.Info.Mark() / owner.Info.MarkOn(t)
//     (or the same through CheckpointInfo()) on the same owner expression;
//   - the owner object is fresh in this function: created here via a
//     composite literal carrying ckpt.NewInfo/ckpt.RestoredInfo, or
//     returned by a New*/new* constructor — a new object's flag starts
//     set, so direct initialization is safe;
//   - the function runs the abort side of the epoch commit/abort protocol
//     (ckpt.Session.Abort/AbortAll/Ack), which re-marks
//     every object the failed epoch touched — rollback writes there are
//     protocol-covered;
//   - the file is generated, or the line carries a suppression comment.
//
// The analyzer additionally flags raw Info.SetModified() calls outside the
// ckpt package itself: SetModified sets the flag but never enqueues the
// object into an attached tracker's mark-queue, so an O(dirty) incremental
// checkpoint (ckpt.Tracker) would silently omit the change. Mark (or
// MarkOn) maintains both. A raw SetModified still counts as dirtying its
// owner for the write diagnostics above — the two defects are reported
// separately.
func dirtyWriteAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "dirtywrite",
		Doc:  "flags writes to tracked checkpoint state that bypass the modified flag",
		Run:  runDirtyWrite,
	}
}

func runDirtyWrite(pass *Pass) []Diagnostic {
	pkg := pass.Pkg
	gen := generatedFiles(pkg)
	var out []Diagnostic
	for _, f := range pkg.Files {
		if gen[f] {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv != nil && (fd.Name.Name == "Record" || fd.Name.Name == "Restore") {
				continue
			}
			out = append(out, dirtyWritesIn(pkg, fd)...)
		}
	}
	return out
}

func dirtyWritesIn(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	apkg := pkg.analysisPkg()
	var writes []bta.TrackedWrite
	var rawSets []token.Pos // raw SetModified calls, flagged separately
	fresh := make(map[types.Object]bool)
	dirtied := make(map[string]bool) // owner exprString -> Mark/MarkOn/SetModified seen
	remarked := false                // abort-protocol re-mark seen

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				markFresh(pkg, st, fresh)
			}
			for _, lhs := range st.Lhs {
				if w, ok := bta.ClassifyWrite(apkg, lhs); ok {
					writes = append(writes, w)
				}
			}
		case *ast.IncDecStmt:
			if w, ok := bta.ClassifyWrite(apkg, st.X); ok {
				writes = append(writes, w)
			}
		case *ast.CallExpr:
			if owner, method, ok := infoDirtyCall(pkg, st); ok {
				dirtied[owner] = true
				if method == "SetModified" && pkg.PkgPath != "ickpt/ckpt" {
					rawSets = append(rawSets, st.Pos())
				}
			}
			if remarksClearedFlags(pkg, st) {
				remarked = true
			}
		}
		return true
	})
	if remarked {
		// The function runs the abort side of the commit/abort protocol:
		// Session.Abort/AbortAll/Ack re-marks every
		// object the failed epoch touched, so direct rollback writes here
		// keep their dirty bit through the protocol, not SetModified.
		return nil
	}

	var out []Diagnostic
	for _, pos := range rawSets {
		out = append(out, Diagnostic{
			Pos: pkg.Fset.Position(pos),
			Message: "raw Info.SetModified sets the flag but bypasses the dirty index; " +
				"call Info.Mark() (or MarkOn) so an attached tracker enqueues the object",
		})
	}
	for _, w := range writes {
		if w.Owner == nil {
			continue
		}
		if obj := rootObject(pkg, w.Owner); obj != nil && fresh[obj] {
			continue
		}
		if dirtied[exprString(pkg.Fset, w.Owner)] {
			continue
		}
		ownerStr := exprString(pkg.Fset, w.Owner)
		var msg string
		if w.Cell {
			msg = fmt.Sprintf("direct write to tracked cell %s.%s bypasses modification tracking; use %s.%s.Set(&%s.Info, ...) or call %s.Info.Mark()",
				ownerStr, w.Field, ownerStr, strings.TrimSuffix(w.Field, ".V"), ownerStr, ownerStr)
		} else {
			msg = fmt.Sprintf("write to ckpt-tagged field %s.%s does not mark %s modified; call %s.Info.Mark() or use a ckpt.Cell",
				ownerStr, w.Field, ownerStr, ownerStr)
		}
		out = append(out, Diagnostic{Pos: pkg.Fset.Position(w.Pos), Message: msg})
	}
	return out
}

// markFresh records locals bound to freshly created checkpointable objects:
// composite literals carrying a ckpt.NewInfo/ckpt.RestoredInfo call, or
// calls to New*/new* constructors. A fresh object's modified flag starts
// set, so direct initialization writes are safe.
func markFresh(pkg *Package, st *ast.AssignStmt, fresh map[types.Object]bool) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, lhs := range st.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || !freshExpr(pkg, st.Rhs[i]) {
			continue
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			fresh[obj] = true
		}
	}
}

// freshExpr reports whether e evaluates to a freshly created object.
func freshExpr(pkg *Package, e ast.Expr) bool {
	switch ex := e.(type) {
	case *ast.UnaryExpr:
		if ex.Op == token.AND {
			return freshExpr(pkg, ex.X)
		}
	case *ast.CompositeLit:
		return containsNode(ex, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return false
			}
			s, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (s.Sel.Name != "NewInfo" && s.Sel.Name != "RestoredInfo") {
				return false
			}
			tv, ok := pkg.Info.Types[call]
			return ok && isCkptNamed(tv.Type, "Info")
		})
	case *ast.CallExpr:
		name := ""
		switch fun := ex.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.IndexExpr: // generic instantiation
			if id, ok := fun.X.(*ast.Ident); ok {
				name = id.Name
			}
		}
		return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
	}
	return false
}

// infoDirtyCall matches the calls that dirty an owner's Info —
// owner.Info.Mark(), owner.Info.MarkOn(t), owner.Info.SetModified(), and
// the same through owner.CheckpointInfo() — returning the printed owner
// expression and the method name.
func infoDirtyCall(pkg *Package, call *ast.CallExpr) (owner, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Mark", "MarkOn", "SetModified":
	default:
		return "", "", false
	}
	if tv, has := pkg.Info.Types[sel.X]; !has || !isCkptNamed(tv.Type, "Info") {
		return "", "", false
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr: // owner.Info.Mark()
		return exprString(pkg.Fset, x.X), sel.Sel.Name, true
	case *ast.CallExpr: // owner.CheckpointInfo().Mark()
		if inner, isSel := x.Fun.(*ast.SelectorExpr); isSel && inner.Sel.Name == "CheckpointInfo" {
			return exprString(pkg.Fset, inner.X), sel.Sel.Name, true
		}
	}
	return "", "", false
}

// rootObject walks to the base identifier of an owner expression and
// returns its object.
func rootObject(pkg *Package, e ast.Expr) types.Object {
	for {
		switch ex := e.(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[ex]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[ex]
		case *ast.SelectorExpr:
			e = ex.X
		case *ast.IndexExpr:
			e = ex.X
		case *ast.StarExpr:
			e = ex.X
		case *ast.ParenExpr:
			e = ex.X
		default:
			return nil
		}
	}
}

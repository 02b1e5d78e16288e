package ckptlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// recordFoldAnalyzer checks hand-written checkpoint protocol methods for
// the symmetry the wire format requires:
//
//   - Record writes exactly one child id per child that Fold visits, in the
//     same order (the record convention of ckpt.Checkpointable);
//   - Restore decodes the same wire kinds, in the same order, that Record
//     encodes;
//   - no loop in Restore is bounded by a raw d.Uvarint() or d.Varint(), read
//     in the loop header or through a local assigned from one: a hostile
//     payload names any count it likes, so the bound must come from
//     d.Count(minElemBytes), which fails the decoder when the count cannot
//     fit in the bytes left (the ckpt.Restorable contract).
//
// An asymmetric trio still compiles and may even round-trip on some inputs,
// but produces checkpoints that rebuild into a corrupted object graph — or
// fail with ckpt.ErrBadBody far from the defect. Generated protocol files
// (the "Code generated" marker) are trusted to their generator and skipped.
//
// The extraction is syntactic and deliberately conservative: a statement
// containing an .Info.ID() call is one child-id write; every other encoder
// or decoder call is one scalar operation of that call's wire kind. Methods
// that delegate their encoding elsewhere are skipped rather than guessed
// at.
func recordFoldAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "recordfold",
		Doc:  "checks Record/Fold/Restore symmetry of hand-written protocol methods",
		Run:  runRecordFold,
	}
}

// wireOp is one linearized protocol operation.
type wireOp struct {
	kind string // encoder/decoder method name, or "childid"
	path string // child path relative to the receiver, for childid ops
	pos  token.Pos
}

// protoMethods collects one type's hand-written protocol methods.
type protoMethods struct {
	record, fold, restore *ast.FuncDecl
}

func runRecordFold(pass *Pass) []Diagnostic {
	pkg := pass.Pkg
	gen := generatedFiles(pkg)

	byType := make(map[string]*protoMethods)
	order := []string{}
	for _, f := range pkg.Files {
		if gen[f] {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			name := recvTypeName(fd)
			if name == "" {
				continue
			}
			pm := byType[name]
			if pm == nil {
				pm = &protoMethods{}
				byType[name] = pm
				order = append(order, name)
			}
			switch fd.Name.Name {
			case "Record":
				pm.record = fd
			case "Fold":
				pm.fold = fd
			case "Restore":
				pm.restore = fd
			}
		}
	}

	var out []Diagnostic
	for _, name := range order {
		pm := byType[name]
		if pm.restore != nil {
			out = append(out, checkRestoreBounds(pkg, name, pm.restore)...)
		}
		if pm.record == nil {
			continue
		}
		recOps, ok := encodeOps(pkg, pm.record)
		if !ok {
			continue // delegating or opaque Record: nothing to compare
		}
		// A Fold that drives the commit/abort protocol (Session.Abort /
		// Commit) wraps its child traversal in failure control flow —
		// retries and rollbacks — that the linear child extraction cannot
		// model; skip it rather than guess. The same
		// goes for a Fold that consults the writer's delta layer
		// (Writer.Shadow): its branches traverse per shadow state, and
		// the full-vs-delta decision itself lives in the emitter, so the
		// fold is sound regardless of which branch runs.
		if pm.fold != nil && !usesSessionProtocol(pkg, pm.fold) && !usesDeltaShadow(pkg, pm.fold) {
			out = append(out, checkFoldSymmetry(pkg, name, recOps, pm.fold)...)
		}
		if pm.restore != nil {
			out = append(out, checkRestoreSymmetry(pkg, name, recOps, pm.restore)...)
		}
	}
	return out
}

// checkRestoreBounds flags each loop in restore whose bound is a raw count:
// a d.Uvarint() or d.Varint() call in the for condition or range operand, or
// a local assigned from one earlier in the body.
func checkRestoreBounds(pkg *Package, typeName string, restore *ast.FuncDecl) []Diagnostic {
	raw := make(map[types.Object]bool)
	isRaw := func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		x, _ := n.(ast.Expr)
		return ok && raw[pkg.Info.Uses[id]] || x != nil && isRawCount(pkg, x)
	}
	var out []Diagnostic
	ast.Inspect(restore.Body, func(n ast.Node) bool {
		var bound ast.Expr
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && len(s.Rhs) == len(s.Lhs) && isRawCount(pkg, s.Rhs[i]) {
					raw[pkg.Info.ObjectOf(id)] = true
				}
			}
		case *ast.ForStmt:
			bound = s.Cond
		case *ast.RangeStmt:
			bound = s.X
		}
		if bound != nil && containsNode(bound, isRaw) {
			out = append(out, Diagnostic{
				Pos: pkg.Fset.Position(bound.Pos()),
				Message: fmt.Sprintf("%s.Restore bounds a loop by a raw decoded count; read it with d.Count(minElemBytes), which fails the decoder when the count cannot fit in the bytes left",
					typeName),
			})
		}
		return true
	})
	return out
}

// isRawCount reports whether e, under parentheses and conversions, is a
// wire.Decoder Uvarint or Varint call.
func isRawCount(pkg *Package, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Uvarint" && sel.Sel.Name != "Varint") {
				return false
			}
			tv, ok := pkg.Info.Types[sel.X]
			return ok && isWireType(tv.Type, "Decoder")
		}
		return false
	}
}

// recvTypeName returns the receiver's type name.
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch tt := t.(type) {
	case *ast.Ident:
		return tt.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// usesDeltaShadow reports whether fd consults the writer's shadow cache
// (Writer.Shadow). A delta-aware fold adapts its traversal to the delta
// layer — re-anchoring a patch chain, forcing an eager re-emit so a shadow
// stays warm — by branching on shadow state, which puts the same child
// behind several exclusive branches the linear extraction would count as
// repeat visits. Such folds are skipped: the emitter makes the
// full-vs-delta decision per record, so whichever branch runs, the record
// convention holds.
func usesDeltaShadow(pkg *Package, fd *ast.FuncDecl) bool {
	return containsNode(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Shadow" || len(call.Args) != 0 {
			return false
		}
		tv, ok := pkg.Info.Types[sel.X]
		return ok && isCkptNamed(tv.Type, "Writer")
	})
}

// checkFoldSymmetry compares Record's child-id order against Fold's
// traversal order.
func checkFoldSymmetry(pkg *Package, typeName string, recOps []wireOp, fold *ast.FuncDecl) []Diagnostic {
	var recChildren []wireOp
	for _, op := range recOps {
		if op.kind == "childid" {
			recChildren = append(recChildren, op)
		}
	}
	foldChildren := foldOps(pkg, fold)

	var out []Diagnostic
	if len(recChildren) != len(foldChildren) {
		out = append(out, Diagnostic{
			Pos: pkg.Fset.Position(fold.Name.Pos()),
			Message: fmt.Sprintf("%s.Record writes %d child id(s) (%s) but %s.Fold visits %d child(ren) (%s); the record convention requires one id per folded child",
				typeName, len(recChildren), childPaths(recChildren),
				typeName, len(foldChildren), childPaths(foldChildren)),
		})
		return out
	}
	for i := range recChildren {
		if recChildren[i].path != foldChildren[i].path {
			out = append(out, Diagnostic{
				Pos: pkg.Fset.Position(foldChildren[i].pos),
				Message: fmt.Sprintf("%s.Fold visits child %s at position %d, but %s.Record writes the id of %s there; Record and Fold must agree on child order",
					typeName, foldChildren[i].path, i+1, typeName, recChildren[i].path),
			})
			return out
		}
	}
	return out
}

// checkRestoreSymmetry compares Record's encode sequence against Restore's
// decode sequence.
func checkRestoreSymmetry(pkg *Package, typeName string, recOps []wireOp, restore *ast.FuncDecl) []Diagnostic {
	resOps, ok := decodeOps(pkg, restore)
	if !ok {
		return nil
	}
	n := len(recOps)
	if len(resOps) < n {
		n = len(resOps)
	}
	for i := 0; i < n; i++ {
		if !wireKindsMatch(recOps[i].kind, resOps[i].kind) {
			return []Diagnostic{{
				Pos: pkg.Fset.Position(resOps[i].pos),
				Message: fmt.Sprintf("%s.Restore decodes %s at wire position %d, but %s.Record encodes %s there; Restore must read fields in the order Record wrote them",
					typeName, opName(resOps[i]), i+1, typeName, opName(recOps[i])),
			}}
		}
	}
	if len(recOps) != len(resOps) {
		return []Diagnostic{{
			Pos: pkg.Fset.Position(restore.Name.Pos()),
			Message: fmt.Sprintf("%s.Record encodes %d wire value(s) but %s.Restore decodes %d; the sequences must have equal length",
				typeName, len(recOps), typeName, len(resOps)),
		}}
	}
	return nil
}

func opName(op wireOp) string {
	if op.kind == "childid" {
		if op.path != "" {
			return "a child id (" + op.path + ")"
		}
		return "a child id"
	}
	return "wire." + op.kind
}

func childPaths(ops []wireOp) string {
	if len(ops) == 0 {
		return "none"
	}
	paths := make([]string, len(ops))
	for i, op := range ops {
		paths[i] = op.path
	}
	return strings.Join(paths, ", ")
}

// encoderKinds are the wire.Encoder methods that append exactly one value.
var encoderKinds = map[string]bool{
	"Uvarint": true, "Varint": true, "Uint64": true,
	"Float64": true, "Bool": true, "Byte": true, "String": true,
	"BytesField": true,
}

// decoderKinds are the wire.Decoder methods that consume exactly one value.
var decoderKinds = map[string]bool{
	"Uvarint": true, "Varint": true, "Uint64": true,
	"Float64": true, "Bool": true, "Byte": true, "String": true,
	"BytesField": true, "Count": true,
}

// wireKindsMatch reports whether an encoded kind and a decoded kind move
// the same wire bytes. Encoder and Decoder use matching method names, a
// child id is encoded as a uvarint, and so is a count read with Count.
func wireKindsMatch(enc, dec string) bool {
	if enc == dec {
		return true
	}
	if enc == "Uvarint" && dec == "Count" {
		return true
	}
	if enc == "childid" && dec == "Uvarint" {
		return true
	}
	if enc == "Uvarint" && dec == "childid" {
		return true
	}
	return false
}

// encodeOps linearizes a Record body into wire operations. It returns
// ok=false when the method performs no recognizable encoding at all (for
// example pure delegation), in which case symmetry cannot be judged.
func encodeOps(pkg *Package, fd *ast.FuncDecl) ([]wireOp, bool) {
	ops := linearize(pkg, fd.Body.List, func(pkg *Package, call *ast.CallExpr) (wireOp, bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !encoderKinds[sel.Sel.Name] {
			return wireOp{}, false
		}
		if tv, ok := pkg.Info.Types[sel.X]; !ok || !isWireType(tv.Type, "Encoder") {
			return wireOp{}, false
		}
		return wireOp{kind: sel.Sel.Name, pos: call.Pos()}, true
	})
	return ops, len(ops) > 0
}

// decodeOps linearizes a Restore body. Decoder calls nested inside a
// ckpt.ResolveAs argument list are child-id reads.
func decodeOps(pkg *Package, fd *ast.FuncDecl) ([]wireOp, bool) {
	resolveArgs := make(map[ast.Node]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isResolveCall(call) {
			for _, arg := range call.Args {
				resolveArgs[arg] = true
			}
		}
		return true
	})

	ops := linearize(pkg, fd.Body.List, func(pkg *Package, call *ast.CallExpr) (wireOp, bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !decoderKinds[sel.Sel.Name] {
			return wireOp{}, false
		}
		if tv, ok := pkg.Info.Types[sel.X]; !ok || !isWireType(tv.Type, "Decoder") {
			return wireOp{}, false
		}
		return wireOp{kind: sel.Sel.Name, pos: call.Pos()}, true
	})

	// Relabel decoder reads that feed a resolver as child ids.
	for i, op := range ops {
		node := containingResolveArg(fd.Body, op.pos, resolveArgs)
		if node != nil {
			ops[i].kind = "childid"
		}
	}
	return ops, len(ops) > 0
}

// isResolveCall matches ckpt.ResolveAs[...](res, ...) and res.Resolve(...)
// style child resolution.
func isResolveCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.IndexExpr:
		if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "ResolveAs"
		}
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name == "ResolveAs"
		}
	case *ast.SelectorExpr:
		return fun.Sel.Name == "ResolveAs" || fun.Sel.Name == "Resolve"
	}
	return false
}

// containingResolveArg returns the resolver argument node containing pos,
// or nil.
func containingResolveArg(root ast.Node, pos token.Pos, resolveArgs map[ast.Node]bool) ast.Node {
	var found ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil || found != nil {
			return false
		}
		if resolveArgs[n] && n.Pos() <= pos && pos < n.End() {
			found = n
			return false
		}
		return true
	})
	return found
}

// isWireType reports whether t is (a pointer to) ickpt/wire.name.
func isWireType(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "ickpt/wire" && obj.Name() == name
}

// linearize walks statements in source order. A statement whose subtree
// contains .Info.ID() calls contributes one childid op per call (this
// absorbs the canonical `if c != nil { id } else { NilID }` shape and
// helper wrappers); any other statement contributes one op per matching
// encoder/decoder call.
func linearize(pkg *Package, stmts []ast.Stmt, classify func(*Package, *ast.CallExpr) (wireOp, bool)) []wireOp {
	var ops []wireOp
	for _, stmt := range stmts {
		ids := infoIDCalls(pkg, stmt)
		if len(ids) > 0 {
			ops = append(ops, ids...)
			continue
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if op, ok := classify(pkg, call); ok {
					ops = append(ops, op)
				}
			}
			return true
		})
	}
	return ops
}

// infoIDCalls finds <child>.Info.ID() calls under n, in source order,
// returning one childid op per call with the child's path relative to the
// receiver.
func infoIDCalls(pkg *Package, n ast.Node) []wireOp {
	var ops []wireOp
	ast.Inspect(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "ID" {
			return true
		}
		info, ok := sel.X.(*ast.SelectorExpr)
		if !ok || info.Sel.Name != "Info" {
			return true
		}
		if tv, ok := pkg.Info.Types[sel.X]; !ok || !isCkptNamed(tv.Type, "Info") {
			return true
		}
		ops = append(ops, wireOp{kind: "childid", path: childPath(pkg, info.X), pos: call.Pos()})
		return true
	})
	return ops
}

// foldOps extracts Fold's w.Checkpoint(child) sequence.
func foldOps(pkg *Package, fd *ast.FuncDecl) []wireOp {
	var ops []wireOp
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Checkpoint" || len(call.Args) != 1 {
			return true
		}
		if tv, ok := pkg.Info.Types[sel.X]; !ok || !isCkptNamed(tv.Type, "Writer") {
			return true
		}
		ops = append(ops, wireOp{kind: "childid", path: childPath(pkg, call.Args[0]), pos: call.Pos()})
		return true
	})
	return ops
}

// childPath renders a child expression relative to the receiver: x.Owner ->
// "Owner", a.SE -> "SE". Non-selector shapes print verbatim.
func childPath(pkg *Package, e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if _, ok := sel.X.(*ast.Ident); ok {
			return sel.Sel.Name
		}
		return childPath(pkg, sel.X) + "." + sel.Sel.Name
	}
	return exprString(pkg.Fset, e)
}

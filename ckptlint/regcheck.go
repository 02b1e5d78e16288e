package ckptlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// regCheckAnalyzer verifies that every concrete type implementing
// ckpt.Restorable can actually be rebuilt from a checkpoint:
//
//   - some scanned package registers a factory for the type with
//     Registry.MustRegister (otherwise rebuilding fails at restore time
//     with ckpt.ErrUnknownType — this analyzer moves that failure to build
//     time);
//   - the registered name is a compile-time constant, so the TypeID derived
//     from it is stable across runs and binaries;
//   - the registered name agrees with the name the type's CheckpointTypeID
//     derives its id from (a mismatch registers the factory under an id no
//     checkpoint stream contains).
//
// Types whose registration legitimately lives outside the scanned packages
// can be waived with a suppression comment on the type declaration.
func regCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "regcheck",
		Doc:  "checks every Restorable type has a stable registry factory",
		Run:  runRegCheck,
	}
}

// registration is one Registry.MustRegister call site.
type registration struct {
	name      string // registered name ("" when not constant)
	constName bool
	typeName  string // factory's concrete type name ("" when unresolved)
	pkgPath   string
	pos       token.Pos
	fset      *token.FileSet
}

func runRegCheck(pass *Pass) []Diagnostic {
	pkg := pass.Pkg

	// Registrations are whole-program facts: a package may register its
	// types from a sibling (for example a generated file or a catalog
	// package). Collect them across the load.
	regs := collectRegistrations(pass.All)

	iface := lookupInterface(pkg, "Restorable")
	if iface == nil {
		return nil
	}

	var out []Diagnostic

	// Non-constant registered names are reported by the package containing
	// the call.
	for _, r := range regs {
		if r.pkgPath != pkg.PkgPath || r.constName {
			continue
		}
		out = append(out, Diagnostic{
			Pos:     r.fset.Position(r.pos),
			Message: "registered type name is not a compile-time constant; the derived TypeID must be stable across runs",
		})
	}

	// Index constant registrations by concrete type.
	regged := make(map[string][]registration) // "pkgpath.TypeName" -> registrations
	for _, r := range regs {
		if r.typeName != "" {
			key := r.pkgPath + "." + r.typeName
			regged[key] = append(regged[key], r)
		}
	}

	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		if !types.Implements(types.NewPointer(named), iface) && !types.Implements(named, iface) {
			continue
		}
		key := pkg.PkgPath + "." + name
		rs := regged[key]
		if len(rs) == 0 {
			out = append(out, Diagnostic{
				Pos: pkg.Fset.Position(tn.Pos()),
				Message: fmt.Sprintf("%s implements ckpt.Restorable but no scanned package registers a factory for it; rebuilding its checkpoints will fail with ErrUnknownType",
					name),
			})
			continue
		}
		// Cross-check the registered name against the name
		// CheckpointTypeID derives the type id from, when both resolve.
		wireName, ok := checkpointTypeName(pass, named)
		if !ok {
			continue
		}
		for _, r := range rs {
			if r.constName && r.name != wireName {
				out = append(out, Diagnostic{
					Pos: r.fset.Position(r.pos),
					Message: fmt.Sprintf("factory for %s is registered as %q, but its CheckpointTypeID derives the type id from %q; restored streams will not find the factory",
						name, r.name, wireName),
				})
			}
		}
	}
	return out
}

// collectRegistrations finds Registry.MustRegister calls across
// all loaded packages.
func collectRegistrations(pkgs []*Package) []registration {
	var regs []registration
	for _, p := range pkgs {
		if p.PkgPath == ckptPath {
			// The runtime's own registration code forwards a name
			// parameter; it is implementation, not a registration.
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "MustRegister" {
					return true
				}
				tv, ok := p.Info.Types[sel.X]
				if !ok || !isCkptNamed(tv.Type, "Registry") {
					return true
				}
				r := registration{pkgPath: p.PkgPath, pos: call.Pos(), fset: p.Fset}
				if s, ok := constString(p, call.Args[0]); ok {
					r.name, r.constName = s, true
				}
				if tn, tp := factoryTypeName(p, call.Args[1]); tn != "" {
					r.typeName = tn
					if tp != "" {
						r.pkgPath = tp
					}
				}
				regs = append(regs, r)
				return true
			})
		}
	}
	return regs
}

// factoryTypeName resolves the concrete type a factory function constructs:
// the named type of the first composite literal (or its address) in the
// factory's body. Returns the type name and its package path.
func factoryTypeName(p *Package, factory ast.Expr) (string, string) {
	fl, ok := factory.(*ast.FuncLit)
	if !ok {
		return "", ""
	}
	var name, pkgPath string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[cl]
		if !ok {
			return true
		}
		if named := namedOf(tv.Type); named != nil && named.Obj() != nil {
			name = named.Obj().Name()
			if named.Obj().Pkg() != nil {
				pkgPath = named.Obj().Pkg().Path()
			}
			return false
		}
		return true
	})
	return name, pkgPath
}

// checkpointTypeName resolves the constant name the type's
// CheckpointTypeID method feeds to ckpt.TypeIDOf. The supported shape is
// the repo convention:
//
//	var typeX = ckpt.TypeIDOf("pkg.X")       // possibly via a const
//	func (x *X) CheckpointTypeID() ckpt.TypeID { return typeX }
//
// Direct `return ckpt.TypeIDOf("pkg.X")` bodies resolve too.
func checkpointTypeName(pass *Pass, named *types.Named) (string, bool) {
	pkg := pass.Pkg
	fd := methodDecl(pkg, named.Obj().Name(), "CheckpointTypeID")
	if fd == nil || fd.Body == nil || len(fd.Body.List) != 1 {
		return "", false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return "", false
	}
	return typeIDName(pkg, ret.Results[0])
}

// typeIDName resolves an expression of type ckpt.TypeID to the constant
// string it was derived from.
func typeIDName(pkg *Package, e ast.Expr) (string, bool) {
	switch ex := e.(type) {
	case *ast.CallExpr: // ckpt.TypeIDOf("...")
		if sel, ok := ex.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "TypeIDOf" && len(ex.Args) == 1 {
			return constString(pkg, ex.Args[0])
		}
	case *ast.Ident: // package var initialized from TypeIDOf
		obj := pkg.Info.Uses[ex]
		if obj == nil {
			return "", false
		}
		init := varInitExpr(pkg, obj)
		if init != nil {
			return typeIDName(pkg, init)
		}
	}
	return "", false
}

// varInitExpr finds the initializer expression of a package-level var.
func varInitExpr(pkg *Package, obj types.Object) ast.Expr {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if pkg.Info.Defs[name] == obj && i < len(vs.Values) {
						return vs.Values[i]
					}
				}
			}
		}
	}
	return nil
}

// methodDecl finds the declaration of typeName's method in the package.
func methodDecl(pkg *Package, typeName, method string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != method {
				continue
			}
			if recvTypeName(fd) == typeName {
				return fd
			}
		}
	}
	return nil
}

package ckptlint

import (
	"fmt"
	"go/ast"

	"ickpt/internal/bta"
)

// patternSpecAnalyzer cross-checks a phase function's static write-set
// against the modification Pattern the phase declares. A spec.Pattern is
// the paper's unsound-if-wrong assumption: the plan compiler elides
// modified-flag tests for classes the pattern declares unmodified and
// prunes subtrees reached through edges it declares unmodified, so a phase
// that writes such state produces silently stale checkpoints. At run time
// only spec.WithVerify catches this; the analyzer catches it at build time.
//
// Phases opt in with an annotation naming the pattern provider (a function
// or package-level var whose body holds the spec.Pattern literal):
//
//	//ckptvet:phase PatternBTA
//	func (e *Engine) RunBTA(...) ... { ... }
//
// The write-set and pattern extraction live in internal/bta, shared with
// the pattern inferrer (cmd/ckptinfer): the checker and the generator see
// source identically. The write-set is computed conservatively from source:
// direct writes to tracked fields, Cell.Set calls, and Info.SetModified
// calls, closed transitively over calls to same-package functions and
// methods. Writes the analyzer cannot see (reflection, cross-package
// mutation, function values) are out of scope. Patterns whose construction
// is not a plain composite literal (computed keys, post-construction map
// writes) cannot be checked; such phases are flagged as unchecked rather
// than silently passed, unless the doc comment acknowledges the dynamic
// construction:
//
//	//ckptvet:phase PatternScan
//	//ckptvet:opaque pattern assembled from per-deployment config
func patternSpecAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "patternspec",
		Doc:  "checks annotated phase write-sets against their declared spec.Pattern",
		Run:  runPatternSpec,
	}
}

func runPatternSpec(pass *Pass) []Diagnostic {
	pkg := pass.Pkg
	apkg := pkg.analysisPkg()
	phases := bta.Phases(apkg)
	if len(phases) == 0 {
		return nil
	}
	all := make([]*bta.Package, len(pass.All))
	for i, p := range pass.All {
		all[i] = p.analysisPkg()
	}

	writes := bta.NewWriteSets(apkg)
	var out []Diagnostic
	for _, ph := range phases {
		provPkg, pattern := bta.ResolvePattern(apkg, all, ph.Provider)
		if pattern == nil {
			out = append(out, Diagnostic{
				Pos: pkg.Fset.Position(ph.Decl.Name.Pos()),
				Message: fmt.Sprintf("//ckptvet:phase names unknown pattern provider %q (no function or var with a spec.Pattern literal found)",
					ph.Provider),
			})
			continue
		}
		if pattern.Opaque {
			// A dynamically built pattern is out of static reach: the
			// phase effectively runs unchecked. Say so, unless the phase
			// owner has acknowledged it.
			if !ph.Opaque {
				out = append(out, Diagnostic{
					Pos: pkg.Fset.Position(ph.Decl.Name.Pos()),
					Message: fmt.Sprintf("pattern %q is built dynamically and cannot be checked against phase %s's write-set; declare it as a plain composite literal, or acknowledge with %s",
						ph.Provider, ph.Decl.Name.Name, bta.OpaqueMarker),
				})
			}
			continue
		}
		classes := bta.CollectClassDecls(provPkg)
		out = append(out, checkPhase(pkg, ph.Decl, pattern, classes, writes)...)
	}
	return out
}

// checkPhase reports writes of fd that contradict the pattern.
func checkPhase(pkg *Package, fd *ast.FuncDecl, pattern *bta.PatternDecl, classes map[string]*bta.ClassDecl, ws *bta.WriteSets) []Diagnostic {
	byGoType := make(map[string]*bta.ClassDecl)
	for _, c := range classes {
		if c.GoTypeName != "" {
			byGoType[c.GoTypeName] = c
		}
	}
	reachable := bta.ReachableClasses(classes, pattern)

	var out []Diagnostic
	for _, w := range ws.Of(bta.FuncObject(pkg.analysisPkg(), fd)) {
		class, ok := byGoType[w.TypeName]
		if !ok {
			continue // type has no specialization class: generic driver territory
		}
		if pattern.Classes[class.Name] == bta.ClassUnmodifiedVal {
			out = append(out, Diagnostic{
				Pos: pkg.Fset.Position(w.Pos),
				Message: fmt.Sprintf("phase %s writes class %s (%s), but pattern %q declares the class unmodified; the specialized plan will skip the change",
					fd.Name.Name, class.Name, w.Desc, pattern.Name),
			})
			continue
		}
		if !reachable[class.Name] {
			out = append(out, Diagnostic{
				Pos: pkg.Fset.Position(w.Pos),
				Message: fmt.Sprintf("phase %s writes class %s (%s), but pattern %q prunes every traversal path to it; the specialized plan will never record the change",
					fd.Name.Name, class.Name, w.Desc, pattern.Name),
			})
		}
	}
	return out
}

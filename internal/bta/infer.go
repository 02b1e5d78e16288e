package bta

import (
	"sort"
	"strings"

	"ickpt/spec"
)

// This file closes the gap between write-sets and spec.Pattern: for each
// annotated phase, the strongest pattern consistent with the phase's static
// write-set. A class whose Go type the phase provably never writes is
// declared ClassUnmodified; everything else stays MayModify. No Children
// edges are emitted: spec.Compile's computeClean already prunes every edge
// whose reachable classes are all unmodified, so class-level declarations
// compile to the same plan a hand-tuned edge declaration would — and
// edge-level claims (notably LastElementOnly) need positional facts a
// flow-insensitive write-set cannot establish.

// InferredPhase is the inference result for one annotated phase.
type InferredPhase struct {
	// Phase is the annotated phase function.
	Phase Phase
	// Pattern is the strongest pattern consistent with the phase's static
	// write-set, named after the declared provider pattern when one
	// resolves (so regenerated code keys match hand-written code).
	Pattern *spec.Pattern
	// Declared is the hand-written provider's extracted pattern, nil when
	// the provider does not resolve to a pattern literal.
	Declared *PatternDecl
	// Writes are the phase's write-set entries attributed to classes.
	Writes []Write
	// Unknown are write-set entries on types with no specialization class:
	// generic-driver territory, outside any pattern's claims.
	Unknown []Write
	// ClassNames are the classes the pattern ranges over, sorted.
	ClassNames []string
}

// InferPhases infers a modification pattern for every annotated phase of
// cur. all supplies the other loaded packages for "pkgname.Provider"
// resolution; it may be nil.
func InferPhases(cur *Package, all []*Package) []InferredPhase {
	phases := Phases(cur)
	if len(phases) == 0 {
		return nil
	}
	ws := NewWriteSets(cur)
	var out []InferredPhase
	for _, ph := range phases {
		provPkg, decl := ResolvePattern(cur, all, ph.Provider)
		classPkg := cur
		if provPkg != nil {
			classPkg = provPkg
		}

		// The class view: the package's spec.Class literals (a derived
		// package has them in its zz_derived_ckpt.go).
		byGoType := make(map[string]string) // Go type name -> class name
		var classNames []string
		for _, c := range CollectClassDecls(classPkg) {
			classNames = append(classNames, c.Name)
			if c.GoTypeName != "" {
				byGoType[c.GoTypeName] = c.Name
			}
		}
		sort.Strings(classNames)

		written := make(map[string]bool)
		var writes, unknown []Write
		for _, w := range ws.Of(FuncObject(cur, ph.Decl)) {
			if class, ok := byGoType[w.TypeName]; ok {
				written[class] = true
				writes = append(writes, w)
			} else {
				unknown = append(unknown, w)
			}
		}

		pat := &spec.Pattern{
			Name:    inferredName(ph.Provider, decl),
			Classes: make(map[string]spec.ClassMod),
		}
		for _, cn := range classNames {
			if !written[cn] {
				pat.Classes[cn] = spec.ClassUnmodified
			}
		}
		out = append(out, InferredPhase{
			Phase:      ph,
			Pattern:    pat,
			Declared:   decl,
			Writes:     writes,
			Unknown:    unknown,
			ClassNames: classNames,
		})
	}
	return out
}

// inferredName names an inferred pattern: the declared provider pattern's
// own Name when it resolves (generated code then keys identically to
// hand-written code), otherwise the provider identifier lowercased with any
// "Pattern" prefix dropped (PatternBTA -> "bta").
func inferredName(provider string, decl *PatternDecl) string {
	if decl != nil && decl.Name != "" {
		return decl.Name
	}
	name := provider
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		name = name[dot+1:]
	}
	name = strings.TrimPrefix(name, "Pattern")
	return strings.ToLower(name)
}

// Spec converts an extracted pattern declaration to a spec.Pattern, for
// drift comparison against inferred or observed patterns. Opaque
// declarations convert too — the caller decides whether partial extraction
// is meaningful.
func (d *PatternDecl) Spec() *spec.Pattern {
	if d == nil {
		return nil
	}
	p := &spec.Pattern{
		Name:     d.Name,
		Classes:  make(map[string]spec.ClassMod),
		Children: make(map[string]spec.ChildMod),
	}
	for name, v := range d.Classes {
		p.Classes[name] = spec.ClassMod(v)
	}
	for key, v := range d.Children {
		p.Children[key] = spec.ChildMod(v)
	}
	return p
}

// Package ckptlint statically verifies the conventions the incremental
// checkpointing protocol relies on but cannot check at run time.
//
// The paper's incremental discipline is sound only if three hand-maintained
// conventions hold: every mutation of checkpointable state sets the
// object's modified flag, hand-written Record/Fold/Restore methods agree on
// field and child order, and a phase's declared modification Pattern really
// over-approximates what the phase writes. A single direct write to a
// tracked field silently produces stale incremental checkpoints. In the
// lineage of the binding-time analyses that Tempo/JSpec run over class
// files, ckptlint verifies these invariants ahead of time from source,
// turning silent checkpoint corruption into build-time diagnostics.
//
// Four analyzers make up the suite:
//
//   - dirtywrite: direct writes to tracked state that bypass the dirty bit
//   - recordfold: Record/Fold/Restore symmetry of hand-written protocol
//     methods
//   - regcheck: every Restorable type has a stable registry entry
//   - patternspec: a phase's static write-set respects its declared
//     spec.Pattern
//
// Run the suite with cmd/ckptvet, or embed it via Load, Analyzers and Run.
// Generated files (the standard "Code generated ... DO NOT EDIT." marker,
// see internal/genmark) are exempt: their generator is responsible for
// them. Individual findings can be waived with a suppression comment on or
// immediately above the flagged line:
//
//	//ckptvet:ignore <analyzer> <reason>
package ckptlint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ickpt/internal/genmark"
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Message describes the finding.
	Message string
}

// String renders the diagnostic in file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is the per-package unit of work handed to an analyzer.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// All is every package of the load, for whole-program facts such as
	// registry registrations living in a different package.
	All []*Package
}

// Analyzer is one check of the suite.
type Analyzer struct {
	// Name is the analyzer's short name, used in diagnostics and
	// suppression comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run analyzes one package.
	Run func(pass *Pass) []Diagnostic
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		dirtyWriteAnalyzer(),
		recordFoldAnalyzer(),
		regCheckAnalyzer(),
		patternSpecAnalyzer(),
	}
}

// Run applies the analyzers to every package and returns the surviving
// diagnostics sorted by position. Findings in generated files and findings
// waived by suppression comments are dropped.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup := newSuppressions(pkg)
		pass := &Pass{Pkg: pkg, All: pkgs}
		for _, a := range analyzers {
			for _, d := range a.Run(pass) {
				d.Analyzer = a.Name
				if sup.waived(a.Name, d.Pos) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ignorePrefix starts a suppression comment.
const ignorePrefix = "//ckptvet:ignore"

// suppressions indexes a package's //ckptvet:ignore comments by file and
// line.
type suppressions struct {
	// byLine maps filename -> line -> suppressed analyzer names.
	byLine map[string]map[int][]string
}

func newSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]string)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], fields[0])
			}
		}
	}
	return s
}

// waived reports whether a suppression for analyzer covers pos: the comment
// sits on the same line or the line directly above.
func (s *suppressions) waived(analyzer string, pos token.Position) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// ---- shared helpers ----

// ckptPath is the import path of the checkpoint runtime.
const ckptPath = "ickpt/ckpt"

// generatedFiles returns the set of the package's files carrying the
// generated-code marker.
func generatedFiles(pkg *Package) map[*ast.File]bool {
	gen := make(map[*ast.File]bool)
	for _, f := range pkg.Files {
		if genmark.ASTIsGenerated(f) {
			gen[f] = true
		}
	}
	return gen
}

// fileOf returns the file containing pos.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// ckptScope returns the scope of the ickpt/ckpt package as seen by pkg: the
// package itself if pkg is it, or the imported view.
func ckptScope(pkg *Package) *types.Scope {
	if pkg.Types.Path() == ckptPath {
		return pkg.Types.Scope()
	}
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == ckptPath {
			return imp.Scope()
		}
	}
	return nil
}

// lookupInterface returns the named interface from the ckpt package, as
// seen by pkg, or nil.
func lookupInterface(pkg *Package, name string) *types.Interface {
	scope := ckptScope(pkg)
	if scope == nil {
		return nil
	}
	obj := scope.Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// isCkptNamed reports whether t (after unwrapping pointers and type
// arguments) is the named type ickpt/ckpt.name.
func isCkptNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == ckptPath && obj.Name() == name
}

// namedOf unwraps pointers and returns the named type behind t, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// exprString renders an expression compactly for messages and structural
// comparison.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return ""
	}
	return sb.String()
}

// constString returns the compile-time string value of e, if it has one.
func constString(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

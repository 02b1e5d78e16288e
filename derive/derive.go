// Package derive generates the checkpoint protocol for annotated Go
// structs: the CheckpointInfo/CheckpointTypeID/Record/Fold/Restore methods,
// a restore registry (Registry), and the spec specialization catalog
// (Catalog).
//
// It is the paper's preprocessor path — "this checkpointing code can either
// be added manually or generated automatically using a preprocessor"
// (Section 2.2) — implemented over Go source instead of Java. A package
// annotates its state types once:
//
//	type Paragraph struct {
//		Info ckpt.Info
//		Text ckpt.Cell[string] `ckpt:"field"`
//		Revs int64             `ckpt:"field"`
//		Next *Paragraph        `ckpt:"next"`
//	}
//
// and `ckptderive` (or Generate) emits a zz_derived_ckpt.go implementing
// the full protocol, byte-compatible with the reflectckpt engine and with
// hand-written methods following the record convention (fields in order,
// then child ids in order). A checkpointable struct with no ckpt tags at all
// has its layout inferred from its field types: scalars and Cells become
// fields, pointers to checkpointable structs children, and a trailing
// self-pointer the next link.
//
// The struct declaration is the one statement of a type's layout: the
// paper's workloads (internal/synth, internal/analysis) and the editor
// (examples/editor, and its copy in internal/difftest) take their whole
// protocol from it. examples/quickstart keeps the manual path the paper
// also allows.
//
// Because the generated catalog carries the structural metadata the
// specializer needs, derived packages get plan compilation and code
// generation (spec.Compile, spec.GenerateGo) for free — the same pipeline
// the paper drives from Java class files.
package derive

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"ickpt/internal/genmark"
)

// ErrDerive reports an annotation or structural problem in the scanned
// package.
var ErrDerive = errors.New("derive: invalid checkpointable type")

// Options configures Generate.
type Options struct {
	// Dir is the package directory to scan.
	Dir string
	// Prefix is prepended to type names to form stable registered names
	// ("prefix.TypeName"); default: the package name + ".".
	Prefix string
}

// fieldKind mirrors the supported wire encodings.
type fieldKind int

const (
	kindInt fieldKind = iota + 1
	kindUint
	kindFloat
	kindBool
	kindString
	kindBytes
)

// fieldInfo is one tagged scalar field.
type fieldInfo struct {
	name string
	kind fieldKind
	cell bool   // ckpt.Cell wrapper: access .V
	cast string // Go type to cast to when decoding ("int32", "" if none)
}

// childInfo is one tagged child pointer.
type childInfo struct {
	name   string
	target string // target struct type name
	isNext bool   // tagged `ckpt:"next"`
	isList bool   // tagged `ckpt:"list"`
}

// typeInfo is one checkpointable struct.
type typeInfo struct {
	name     string
	fields   []fieldInfo
	children []childInfo
	next     int // index in children of the next pointer, or -1
}

// Generate scans the package in opts.Dir and returns the generated source
// file.
func Generate(opts Options) ([]byte, error) {
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("derive: %w", err)
	}
	fset := token.NewFileSet()
	var (
		files   []*ast.File
		pkgName string
	)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, "zz_") {
			continue
		}
		path := filepath.Join(opts.Dir, name)
		if genmark.FileIsGenerated(path) {
			// Output of this or another generator: never an input.
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("derive: parse %s: %w", name, err)
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if pkgName != f.Name.Name {
			return nil, fmt.Errorf("derive: multiple packages in %s (%s, %s)", opts.Dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	if pkgName == "" {
		return nil, fmt.Errorf("derive: no Go package found in %s", opts.Dir)
	}

	types, err := collectTypes(files)
	if err != nil {
		return nil, err
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("%w: no checkpointable structs in %s", ErrDerive, opts.Dir)
	}
	if err := validate(types); err != nil {
		return nil, err
	}

	prefix := opts.Prefix
	if prefix == "" {
		prefix = pkgName + "."
	}
	return render(pkgName, prefix, types)
}

// collectTypes finds every struct with an `Info ckpt.Info` field. A struct
// carrying no ckpt tags at all gets its layout inferred (inferTypeInfo);
// inference needs the full set of checkpointable names, so collection runs
// in two passes.
func collectTypes(files []*ast.File) ([]*typeInfo, error) {
	type candidate struct {
		name string
		st   *ast.StructType
	}
	var cands []candidate
	ckptNames := make(map[string]bool)
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !hasInfoField(st) {
					continue
				}
				cands = append(cands, candidate{ts.Name.Name, st})
				ckptNames[ts.Name.Name] = true
			}
		}
	}

	var out []*typeInfo
	var firstErr error
	for _, c := range cands {
		ti, err := buildTypeInfo(c.name, c.st)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if len(ti.fields) == 0 && len(ti.children) == 0 && !hasCkptTag(c.st) {
			ti = inferTypeInfo(c.name, c.st, ckptNames)
		}
		out = append(out, ti)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// hasCkptTag reports whether any field of st carries a ckpt struct tag.
func hasCkptTag(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		if f.Tag == nil {
			continue
		}
		if reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Get("ckpt") != "" {
			return true
		}
	}
	return false
}

// inferTypeInfo derives the layout of a fully untagged checkpointable
// struct: scalar and ckpt.Cell fields are recorded fields, pointers to
// package-local checkpointable structs are children, and a trailing
// self-pointer is the next pointer. Fields outside those shapes are skipped
// (the Info field among them) — tag them explicitly to make them an error
// instead. A single ckpt tag on a struct makes its tags authoritative.
func inferTypeInfo(name string, st *ast.StructType, ckptNames map[string]bool) *typeInfo {
	ti := &typeInfo{name: name, next: -1}
	for _, f := range st.Fields.List {
		for _, fn := range f.Names {
			if fn.Name == "Info" {
				continue
			}
			if star, ok := f.Type.(*ast.StarExpr); ok {
				if target, ok := star.X.(*ast.Ident); ok && ckptNames[target.Name] {
					ti.children = append(ti.children, childInfo{name: fn.Name, target: target.Name})
				}
				continue
			}
			if fi, err := scalarField(name, fn.Name, f.Type); err == nil {
				ti.fields = append(ti.fields, fi)
			}
		}
	}
	// A self-pointer in trailing position is the list linkage; earlier
	// self-pointers stay tree children (the next pointer must be last).
	if n := len(ti.children); n > 0 && ti.children[n-1].target == name {
		ti.children[n-1].isNext = true
		ti.next = n - 1
	}
	return ti
}

// hasInfoField reports an `Info ckpt.Info` field.
func hasInfoField(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name != "Info" {
				continue
			}
			if sel, ok := f.Type.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "ckpt" && sel.Sel.Name == "Info" {
					return true
				}
			}
		}
	}
	return false
}

// buildTypeInfo extracts tagged fields and children.
func buildTypeInfo(name string, st *ast.StructType) (*typeInfo, error) {
	ti := &typeInfo{name: name, next: -1}
	for _, f := range st.Fields.List {
		if f.Tag == nil || len(f.Names) == 0 {
			continue
		}
		tag := reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Get("ckpt")
		if tag == "" {
			continue
		}
		for _, fn := range f.Names {
			switch tag {
			case "field":
				fi, err := scalarField(name, fn.Name, f.Type)
				if err != nil {
					return nil, err
				}
				ti.fields = append(ti.fields, fi)
			case "child", "next", "list":
				star, ok := f.Type.(*ast.StarExpr)
				if !ok {
					return nil, fmt.Errorf("%w: %s.%s: child fields must be pointers", ErrDerive, name, fn.Name)
				}
				target, ok := star.X.(*ast.Ident)
				if !ok {
					return nil, fmt.Errorf("%w: %s.%s: child must point to a package-local struct",
						ErrDerive, name, fn.Name)
				}
				ci := childInfo{
					name:   fn.Name,
					target: target.Name,
					isNext: tag == "next",
					isList: tag == "list",
				}
				if ci.isNext {
					if ti.next >= 0 {
						return nil, fmt.Errorf("%w: %s has two next pointers", ErrDerive, name)
					}
					if ci.target != name {
						return nil, fmt.Errorf("%w: %s.%s: next pointer must have type *%s",
							ErrDerive, name, fn.Name, name)
					}
					ti.next = len(ti.children)
				}
				ti.children = append(ti.children, ci)
			default:
				return nil, fmt.Errorf("%w: %s.%s: unknown ckpt tag %q", ErrDerive, name, fn.Name, tag)
			}
		}
	}
	if ti.next >= 0 && ti.next != len(ti.children)-1 {
		return nil, fmt.Errorf("%w: %s: the next pointer must be the last child", ErrDerive, name)
	}
	return ti, nil
}

// scalarField classifies a tagged scalar field's type.
func scalarField(typeName, fieldName string, t ast.Expr) (fieldInfo, error) {
	fi := fieldInfo{name: fieldName}

	// ckpt.Cell[T] unwraps to T.
	if idx, ok := t.(*ast.IndexExpr); ok {
		if sel, ok := idx.X.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "ckpt" && sel.Sel.Name == "Cell" {
				inner, err := scalarField(typeName, fieldName, idx.Index)
				if err != nil {
					return fi, err
				}
				inner.cell = true
				return inner, nil
			}
		}
	}

	switch tt := t.(type) {
	case *ast.Ident:
		switch tt.Name {
		case "int", "int8", "int16", "int32", "int64":
			fi.kind = kindInt
			if tt.Name != "int64" {
				fi.cast = tt.Name
			}
		case "uint", "uint8", "uint16", "uint32", "uint64", "uintptr":
			fi.kind = kindUint
			if tt.Name != "uint64" {
				fi.cast = tt.Name
			}
		case "float32", "float64":
			fi.kind = kindFloat
			if tt.Name != "float64" {
				fi.cast = tt.Name
			}
		case "bool":
			fi.kind = kindBool
		case "string":
			fi.kind = kindString
		default:
			return fi, fmt.Errorf("%w: %s.%s: unsupported field type %s",
				ErrDerive, typeName, fieldName, tt.Name)
		}
	case *ast.ArrayType:
		if tt.Len == nil {
			if id, ok := tt.Elt.(*ast.Ident); ok && (id.Name == "byte" || id.Name == "uint8") {
				fi.kind = kindBytes
				return fi, nil
			}
		}
		return fi, fmt.Errorf("%w: %s.%s: only []byte slices are supported", ErrDerive, typeName, fieldName)
	default:
		return fi, fmt.Errorf("%w: %s.%s: unsupported field type", ErrDerive, typeName, fieldName)
	}
	return fi, nil
}

// validate checks cross-type consistency.
func validate(types []*typeInfo) error {
	byName := make(map[string]*typeInfo, len(types))
	for _, t := range types {
		byName[t.name] = t
	}
	for _, t := range types {
		for _, c := range t.children {
			target, ok := byName[c.target]
			if !ok {
				return fmt.Errorf("%w: %s.%s references %s, which is not checkpointable (missing Info field or excluded)",
					ErrDerive, t.name, c.name, c.target)
			}
			if c.isList && target.next < 0 {
				return fmt.Errorf("%w: %s.%s is a list of %s, which has no `ckpt:\"next\"` pointer",
					ErrDerive, t.name, c.name, c.target)
			}
		}
	}
	return nil
}

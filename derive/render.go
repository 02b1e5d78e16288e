package derive

import (
	"fmt"
	"go/format"
	"strings"

	"ickpt/internal/genmark"
)

// render emits the generated source file.
func render(pkgName, prefix string, types []*typeInfo) ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", genmark.Comment("ckptderive"))
	fmt.Fprintf(&b, "//\n// Checkpoint protocol for the annotated structs of package %s:\n", pkgName)
	fmt.Fprintf(&b, "// Record writes tagged fields in declaration order followed by child ids;\n")
	fmt.Fprintf(&b, "// Fold traverses children in order; Restore is Record's inverse.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", pkgName)
	fmt.Fprintf(&b, "import (\n\t\"ickpt/ckpt\"\n\t\"ickpt/spec\"\n\t\"ickpt/wire\"\n)\n\n")

	// Stable type ids.
	fmt.Fprintf(&b, "// Derived stable type ids.\nvar (\n")
	for _, t := range types {
		fmt.Fprintf(&b, "\tderivedType%s = ckpt.TypeIDOf(%q)\n", t.name, prefix+t.name)
	}
	fmt.Fprintf(&b, ")\n")

	for _, t := range types {
		renderType(&b, t)
	}
	renderRegistry(&b, prefix, types)
	renderCatalog(&b, types)

	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return nil, fmt.Errorf("derive: generated source does not parse: %w\n%s", err, b.String())
	}
	return src, nil
}

func renderType(b *strings.Builder, t *typeInfo) {
	r := "x"

	fmt.Fprintf(b, "\nvar _ ckpt.Restorable = (*%s)(nil)\n", t.name)

	fmt.Fprintf(b, "\n// CheckpointInfo returns the object's checkpoint metadata.\n")
	fmt.Fprintf(b, "func (%s *%s) CheckpointInfo() *ckpt.Info { return &%s.Info }\n", r, t.name, r)

	fmt.Fprintf(b, "\n// CheckpointTypeID returns the object's stable type id.\n")
	fmt.Fprintf(b, "func (%s *%s) CheckpointTypeID() ckpt.TypeID { return derivedType%s }\n", r, t.name, t.name)

	// Record.
	fmt.Fprintf(b, "\n// Record writes the object's local state: tagged fields, then child ids.\n")
	fmt.Fprintf(b, "func (%s *%s) Record(e *wire.Encoder) {\n", r, t.name)
	for _, f := range t.fields {
		expr := r + "." + f.name
		if f.cell {
			expr += ".V"
		}
		switch f.kind {
		case kindInt:
			fmt.Fprintf(b, "\te.Varint(int64(%s))\n", expr)
		case kindUint:
			fmt.Fprintf(b, "\te.Uvarint(uint64(%s))\n", expr)
		case kindFloat:
			fmt.Fprintf(b, "\te.Float64(float64(%s))\n", expr)
		case kindBool:
			fmt.Fprintf(b, "\te.Bool(%s)\n", expr)
		case kindString:
			fmt.Fprintf(b, "\te.String(%s)\n", expr)
		case kindBytes:
			fmt.Fprintf(b, "\te.BytesField(%s)\n", expr)
		}
	}
	for _, c := range t.children {
		fmt.Fprintf(b, "\tif %s.%s != nil {\n\t\te.Uvarint(%s.%s.Info.ID())\n\t} else {\n\t\te.Uvarint(ckpt.NilID)\n\t}\n",
			r, c.name, r, c.name)
	}
	fmt.Fprintf(b, "}\n")

	// Fold: the last child is a tail call, the shape a hand-written list
	// element's Fold takes.
	fmt.Fprintf(b, "\n// Fold traverses the object's checkpointable children.\n")
	fmt.Fprintf(b, "func (%s *%s) Fold(w *ckpt.Writer) error {\n", r, t.name)
	for i, c := range t.children {
		if i == len(t.children)-1 {
			fmt.Fprintf(b, "\tif %s.%s != nil {\n\t\treturn w.Checkpoint(%s.%s)\n\t}\n", r, c.name, r, c.name)
			continue
		}
		fmt.Fprintf(b, "\tif %s.%s != nil {\n\t\tif err := w.Checkpoint(%s.%s); err != nil {\n\t\t\treturn err\n\t\t}\n\t}\n",
			r, c.name, r, c.name)
	}
	fmt.Fprintf(b, "\treturn nil\n}\n")

	// Restore.
	fmt.Fprintf(b, "\n// Restore reads the fields written by Record.\n")
	fmt.Fprintf(b, "func (%s *%s) Restore(d *wire.Decoder, res *ckpt.Resolver) error {\n", r, t.name)
	for _, f := range t.fields {
		expr := r + "." + f.name
		if f.cell {
			expr += ".V"
		}
		var read string
		switch f.kind {
		case kindInt:
			read = "d.Varint()"
		case kindUint:
			read = "d.Uvarint()"
		case kindFloat:
			read = "d.Float64()"
		case kindBool:
			read = "d.Bool()"
		case kindString:
			read = "d.String()"
		case kindBytes:
			read = "d.BytesField()"
		}
		if f.cast != "" {
			read = f.cast + "(" + read + ")"
		}
		fmt.Fprintf(b, "\t%s = %s\n", expr, read)
	}
	for i, c := range t.children {
		fmt.Fprintf(b, "\tc%d, err := ckpt.ResolveAs[*%s](res, d.Uvarint())\n", i, c.target)
		fmt.Fprintf(b, "\tif err != nil {\n\t\treturn err\n\t}\n")
		fmt.Fprintf(b, "\t%s.%s = c%d\n", r, c.name, i)
	}
	fmt.Fprintf(b, "\treturn nil\n}\n")
}

func renderRegistry(b *strings.Builder, prefix string, types []*typeInfo) {
	fmt.Fprintf(b, "\n// Registry returns a registry with every derived type registered,\n// for rebuilding state from checkpoints.\n")
	fmt.Fprintf(b, "func Registry() *ckpt.Registry {\n\treg := ckpt.NewRegistry()\n")
	for _, t := range types {
		fmt.Fprintf(b, "\treg.MustRegister(%q, func(id uint64) ckpt.Restorable {\n", prefix+t.name)
		fmt.Fprintf(b, "\t\treturn &%s{Info: ckpt.RestoredInfo(id)}\n\t})\n", t.name)
	}
	fmt.Fprintf(b, "\treturn reg\n}\n")
}

func renderCatalog(b *strings.Builder, types []*typeInfo) {
	fmt.Fprintf(b, "\n// Catalog returns the specialization catalog for the derived types:\n// the structural declarations and accessors the spec plan compiler and\n// code generator consume.\n")
	fmt.Fprintf(b, "func Catalog() *spec.Catalog {\n\tcat := spec.NewCatalog()\n")
	for _, t := range types {
		fmt.Fprintf(b, "\tcat.MustRegister(spec.Class{\n")
		fmt.Fprintf(b, "\t\tName:   %q,\n", t.name)
		fmt.Fprintf(b, "\t\tTypeID: derivedType%s,\n", t.name)
		fmt.Fprintf(b, "\t\tGoType: %q,\n", "*"+t.name)
		if len(t.fields) > 0 {
			fmt.Fprintf(b, "\t\tFields: []spec.Field{\n")
			for _, f := range t.fields {
				goExpr := "o." + f.name
				if f.cell {
					goExpr += ".V"
				}
				fmt.Fprintf(b, "\t\t\t{Name: %q, Kind: %s, Go: %q},\n", f.name, specKind(f.kind), goExpr)
			}
			fmt.Fprintf(b, "\t\t},\n")
		}
		if len(t.children) > 0 {
			fmt.Fprintf(b, "\t\tChildren: []spec.Child{\n")
			for _, c := range t.children {
				fmt.Fprintf(b, "\t\t\t{Name: %q, Class: %q, List: %v, Go: %q},\n",
					c.name, c.target, c.isList, "o."+c.name)
			}
			fmt.Fprintf(b, "\t\t},\n")
		}
		fmt.Fprintf(b, "\t\tNextChild: %d,\n", t.next)
		fmt.Fprintf(b, "\t}, spec.Binding{\n")
		fmt.Fprintf(b, "\t\tInfo:   func(o any) *ckpt.Info { return &o.(*%s).Info },\n", t.name)
		fmt.Fprintf(b, "\t\tRecord: func(o any, e *wire.Encoder) { o.(*%s).Record(e) },\n", t.name)
		if len(t.children) > 0 {
			fmt.Fprintf(b, "\t\tChild: func(o any, i int) any {\n\t\t\tx := o.(*%s)\n\t\t\tswitch i {\n", t.name)
			for i, c := range t.children {
				fmt.Fprintf(b, "\t\t\tcase %d:\n\t\t\t\tif x.%s != nil {\n\t\t\t\t\treturn x.%s\n\t\t\t\t}\n", i, c.name, c.name)
			}
			fmt.Fprintf(b, "\t\t\t}\n\t\t\treturn nil\n\t\t},\n")
		}
		fmt.Fprintf(b, "\t})\n")
	}
	fmt.Fprintf(b, "\treturn cat\n}\n")
}

func specKind(k fieldKind) string {
	switch k {
	case kindInt:
		return "spec.Int"
	case kindUint:
		return "spec.Uint"
	case kindFloat:
		return "spec.Float64"
	case kindBool:
		return "spec.Bool"
	case kindString:
		return "spec.String"
	case kindBytes:
		return "spec.Bytes"
	default:
		return "0"
	}
}

package derive_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ickpt/derive"
)

// writePkg lays out a temp package directory.
func writePkg(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goodPkg = `
package sample

import "ickpt/ckpt"

type Node struct {
	Info ckpt.Info
	V    int64 ` + "`ckpt:\"field\"`" + `
	Next *Node ` + "`ckpt:\"next\"`" + `
}

type Root struct {
	Info ckpt.Info
	Tag  string ` + "`ckpt:\"field\"`" + `
	Head *Node  ` + "`ckpt:\"list\"`" + `
}

// Plain types without Info are ignored.
type helper struct{ x int }
`

func TestGenerateBasics(t *testing.T) {
	dir := writePkg(t, map[string]string{"types.go": goodPkg})
	src, err := derive.Generate(derive.Options{Dir: dir})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	s := string(src)
	for _, want := range []string{
		"package sample",
		`ckpt.TypeIDOf("sample.Node")`,
		"func (x *Root) Record(e *wire.Encoder)",
		"func (x *Node) Restore(d *wire.Decoder, res *ckpt.Resolver) error",
		"func Registry() *ckpt.Registry",
		"func Catalog() *spec.Catalog",
		"NextChild: 0,",  // Node's next pointer
		"NextChild: -1,", // Root
		"List: true",
		// The last child is a tail call.
		"\tif x.Next != nil {\n\t\treturn w.Checkpoint(x.Next)\n\t}\n\treturn nil\n",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	if strings.Contains(s, "helper") {
		t.Error("non-checkpointable type leaked into generated code")
	}
}

func TestGenerateExportedAndPrefix(t *testing.T) {
	dir := writePkg(t, map[string]string{"types.go": goodPkg})
	src, err := derive.Generate(derive.Options{Dir: dir, Prefix: "custom."})
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	if !strings.Contains(s, "func Registry()") || !strings.Contains(s, "func Catalog()") {
		t.Error("exported functions missing")
	}
	if !strings.Contains(s, `ckpt.TypeIDOf("custom.Root")`) {
		t.Error("prefix not applied")
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown tag", `
package p
import "ickpt/ckpt"
type T struct {
	Info ckpt.Info
	V    int64 ` + "`ckpt:\"bogus\"`" + `
}`},
		{"unsupported type", `
package p
import "ickpt/ckpt"
type T struct {
	Info ckpt.Info
	V    complex128 ` + "`ckpt:\"field\"`" + `
}`},
		{"non-pointer child", `
package p
import "ickpt/ckpt"
type T struct {
	Info ckpt.Info
	C    T ` + "`ckpt:\"child\"`" + `
}`},
		{"next not last", `
package p
import "ickpt/ckpt"
type T struct {
	Info ckpt.Info
	Next *T ` + "`ckpt:\"next\"`" + `
	C    *T ` + "`ckpt:\"child\"`" + `
}`},
		{"next wrong type", `
package p
import "ickpt/ckpt"
type U struct {
	Info ckpt.Info
}
type T struct {
	Info ckpt.Info
	Next *U ` + "`ckpt:\"next\"`" + `
}`},
		{"list of non-element", `
package p
import "ickpt/ckpt"
type U struct {
	Info ckpt.Info
}
type T struct {
	Info ckpt.Info
	L    *U ` + "`ckpt:\"list\"`" + `
}`},
		{"int slice field", `
package p
import "ickpt/ckpt"
type T struct {
	Info ckpt.Info
	V    []int64 ` + "`ckpt:\"field\"`" + `
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writePkg(t, map[string]string{"types.go": tc.src})
			if _, err := derive.Generate(derive.Options{Dir: dir}); !errors.Is(err, derive.ErrDerive) {
				t.Errorf("Generate = %v, want ErrDerive", err)
			}
		})
	}
}

const untaggedPkg = `
package plain

import "ickpt/ckpt"

// Item carries no ckpt tags, so its layout is inferred — scalars and Cells
// become fields, the trailing self-pointer the next link.
type Item struct {
	Info  ckpt.Info
	Score ckpt.Cell[int64]
	Label string
	note  func() // unsupported shape: skipped, not an error
	Next  *Item
}

// Box mixes an inferred child with a scalar; Tagged keeps its tags
// authoritative.
type Box struct {
	Info ckpt.Info
	Head *Item
	N    uint32
}

type Tagged struct {
	Info ckpt.Info
	Kept int64 ` + "`ckpt:\"field\"`" + `
	Skip int64
}
`

func TestGenerateInferUntagged(t *testing.T) {
	dir := writePkg(t, map[string]string{"types.go": untaggedPkg})
	src, err := derive.Generate(derive.Options{Dir: dir})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	s := string(src)
	for _, want := range []string{
		"e.Varint(int64(x.Score.V))", // inferred Cell field
		"e.String(x.Label)",          // inferred plain scalar
		"NextChild: 0,",              // Item's trailing self-pointer became next
		"e.Uvarint(uint64(x.N))",
		"e.Varint(int64(x.Kept))", // tagged struct: tags still authoritative
	} {
		if !strings.Contains(s, want) {
			t.Errorf("generated source missing %q\n%s", want, s)
		}
	}
	if strings.Contains(s, "x.Skip") {
		t.Error("inference overrode explicit tags: untagged field of a tagged struct leaked")
	}
	if strings.Contains(s, "note") {
		t.Error("unsupported field shape leaked into generated code")
	}

	// Box.Head must be a child edge of Box, not a next pointer.
	if !strings.Contains(s, `{Name: "Head", Class: "Item"`) {
		t.Errorf("inferred child edge Box.Head missing:\n%s", s)
	}
}

func TestGenerateNoPackage(t *testing.T) {
	dir := t.TempDir()
	if _, err := derive.Generate(derive.Options{Dir: dir}); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestGenerateNoAnnotatedTypes(t *testing.T) {
	dir := writePkg(t, map[string]string{"types.go": "package p\n\ntype X struct{ A int }\n"})
	if _, err := derive.Generate(derive.Options{Dir: dir}); !errors.Is(err, derive.ErrDerive) {
		t.Errorf("Generate = %v, want ErrDerive", err)
	}
}

func TestGenerateSkipsTestAndGeneratedFiles(t *testing.T) {
	dir := writePkg(t, map[string]string{
		"types.go":      goodPkg,
		"zz_old.go":     "package sample\n\nfunc stale() {}\n",
		"extra_test.go": "package sample\n\nimport \"testing\"\n\nfunc TestX(t *testing.T) {}\n",
	})
	if _, err := derive.Generate(derive.Options{Dir: dir}); err != nil {
		t.Errorf("Generate with zz_/test files = %v", err)
	}
}

func TestGenerateCellVariants(t *testing.T) {
	dir := writePkg(t, map[string]string{"types.go": `
package p
import "ickpt/ckpt"
type T struct {
	Info ckpt.Info
	A    ckpt.Cell[int32]   ` + "`ckpt:\"field\"`" + `
	B    ckpt.Cell[string]  ` + "`ckpt:\"field\"`" + `
	C    ckpt.Cell[float32] ` + "`ckpt:\"field\"`" + `
	D    []byte             ` + "`ckpt:\"field\"`" + `
	E    uint8              ` + "`ckpt:\"field\"`" + `
}`})
	src, err := derive.Generate(derive.Options{Dir: dir})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	s := string(src)
	wants := []string{
		"x.A.V = int32(d.Varint())",
		"x.B.V = d.String()",
		"x.C.V = float32(d.Float64())",
		"x.D = d.BytesField()",
		"x.E = uint8(d.Uvarint())",
	}
	for _, want := range wants {
		if !strings.Contains(s, want) {
			t.Errorf("generated source missing %q\n%s", want, s)
		}
	}
}

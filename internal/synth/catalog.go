package synth

// The derived protocol goes first: ckptgen (gen_targets.go) compiles the
// derived Catalog, and go generate runs a package's files in name order.
//go:generate go run ickpt/cmd/ckptderive -dir .

import (
	"fmt"

	"ickpt/spec"
)

// Kind selects the element payload size: one or ten recorded integers.
type Kind int

// Element payload kinds.
const (
	Ints1  Kind = 1
	Ints10 Kind = 10
)

// String returns "1" or "10".
func (k Kind) String() string { return fmt.Sprintf("%d", int(k)) }

// structureClass returns the specialization-class name of the kind's
// structure type.
func (k Kind) structureClass() string {
	if k == Ints1 {
		return "Structure1"
	}
	return "Structure10"
}

// listChildren are the structure's five list field names.
var listChildren = [NumLists]string{"L0", "L1", "L2", "L3", "L4"}

// PatternLists declares the Figure-9 phase knowledge for kind: the
// structures themselves are never modified, only the first modifiable of
// the five lists may contain modified elements, and the rest are clean.
func PatternLists(kind Kind, modifiable int) *spec.Pattern {
	sc := kind.structureClass()
	p := &spec.Pattern{
		Name:     fmt.Sprintf("lists%d", modifiable),
		Classes:  map[string]spec.ClassMod{sc: spec.ClassUnmodified},
		Children: make(map[string]spec.ChildMod),
	}
	for i := modifiable; i < NumLists; i++ {
		p.Children[sc+"."+listChildren[i]] = spec.ChildUnmodified
	}
	return p
}

// PatternLastOnly declares the Figure-10 phase knowledge for kind: as
// PatternLists, and additionally only the last element of each modifiable
// list may be modified.
func PatternLastOnly(kind Kind, modifiable int) *spec.Pattern {
	p := PatternLists(kind, modifiable)
	p.Name = fmt.Sprintf("last%d", modifiable)
	sc := kind.structureClass()
	for i := 0; i < modifiable; i++ {
		p.Children[sc+"."+listChildren[i]] = spec.LastElementOnly
	}
	return p
}

// CompilePlan compiles the specialized plan for kind under pat (nil for
// structure-only specialization, Figure 8).
func CompilePlan(kind Kind, pat *spec.Pattern, opts ...spec.CompileOption) (*spec.Plan, error) {
	return spec.Compile(Catalog(), kind.structureClass(), pat, opts...)
}

// Package spec implements program specialization of the checkpointing
// process, the paper's central contribution.
//
// The generic driver in package ckpt traverses arbitrary structures through
// interface dispatch and tests every object's modified flag. When the shape
// of a compound structure is known, and when the current program phase is
// known to modify only part of it, that genericity is pure overhead. The
// paper removes it with the JSpec/Tempo specializer; this package removes it
// with a plan compiler:
//
//  1. The programmer declares specialization classes ([Class]) describing
//     each type's recorded fields and checkpointable children — the
//     structural information Tempo gets from the Java class files — and
//     registers typed accessors ([Binding]).
//  2. A [Pattern] declares, per program phase, which classes and which
//     child paths may be modified — the information the paper's
//     specialization classes declare about the modified() method.
//  3. [Compile] performs the "binding-time analysis" of checkpointing: it
//     folds the pattern over the structure, prunes subtrees that are
//     statically unmodified, elides modified-flag tests that are statically
//     false, flattens list traversals, and produces a [Plan].
//
// A Plan can be executed directly (run-time specialization, in the lineage
// of Tempo's template-based run-time specializer) or exported as Go source
// with [GenerateGo] (compile-time specialization, the JSCC → Tempo → Assirah
// pipeline). Both backends write through ckpt.Emitter and produce bodies
// byte-identical to the generic driver's — specialization is strictly an
// optimization.
package spec

import (
	"errors"
	"fmt"
	"sort"

	"ickpt/ckpt"
	"ickpt/wire"
)

// Errors reported by the catalog, compiler and executor.
var (
	// ErrClass reports an invalid or unknown specialization class.
	ErrClass = errors.New("spec: invalid specialization class")
	// ErrPattern reports an invalid modification pattern.
	ErrPattern = errors.New("spec: invalid modification pattern")
	// ErrPatternViolated reports (in verify mode) an object found modified
	// although the pattern declared it unmodifiable — an unsound
	// specialization-class declaration.
	ErrPatternViolated = errors.New("spec: modification pattern violated")
	// ErrBinding reports a missing or ill-formed accessor binding.
	ErrBinding = errors.New("spec: invalid binding")
)

// FieldKind classifies a recorded scalar field. It determines the wire
// encoding and the code the generator emits.
type FieldKind uint8

// Scalar field kinds.
const (
	Int     FieldKind = iota + 1 // signed integers, encoded as zig-zag varint
	Uint                         // unsigned integers, encoded as uvarint
	Float64                      // floating point, encoded as IEEE-754 bits
	Bool                         // booleans, one byte
	String                       // strings, length-prefixed
	Bytes                        // byte slices, length-prefixed
)

// String returns the kind name.
func (k FieldKind) String() string {
	switch k {
	case Int:
		return "int"
	case Uint:
		return "uint"
	case Float64:
		return "float64"
	case Bool:
		return "bool"
	case String:
		return "string"
	case Bytes:
		return "bytes"
	default:
		return "invalid"
	}
}

// Field describes one recorded scalar field of a class.
type Field struct {
	// Name is the field's name, for plan printing.
	Name string
	// Kind selects the wire encoding.
	Kind FieldKind
	// Go is the Go expression for the field relative to the receiver
	// variable "o" (for example "o.Vals[3]" or "o.Score.V"), used by the
	// code generator. Optional if code generation is not used.
	Go string
}

// Child describes one checkpointable child of a class. Children appear in
// the class in the same order that the type's Record method writes their
// ids and its Fold method traverses them.
type Child struct {
	// Name is the child field's name, for plan printing and for pattern
	// overrides ("Class.Name").
	Name string
	// Class names the child's specialization class.
	Class string
	// List marks a linked-list child: the field points at the head
	// element, and elements chain through their class's NextChild.
	List bool
	// Go is the Go expression for the child pointer relative to "o",
	// used by the code generator.
	Go string
}

// ClassMod declares whether instances of a class may be modified in the
// phase a pattern describes.
type ClassMod uint8

// Class-level modification declarations.
const (
	// MayModify (the default) keeps the run-time modified-flag test.
	MayModify ClassMod = iota
	// ClassUnmodified declares that no instance of the class is modified
	// during the phase: the test and the record code are elided.
	ClassUnmodified
)

// ChildMod overrides the modification declaration along one child edge.
type ChildMod uint8

// Child-edge modification declarations.
const (
	// Inherit uses the child class's own declaration.
	Inherit ChildMod = iota
	// ChildUnmodified declares the entire subtree reached through this
	// child unmodified: it is pruned from the traversal.
	ChildUnmodified
	// LastElementOnly declares that in the list reached through this
	// child, only the final element (and its subtree) may be modified:
	// earlier elements are walked without tests.
	LastElementOnly
)

// Class is a specialization class: the structural declaration for one
// checkpointable Go type.
type Class struct {
	// Name is the class's unique name within a catalog.
	Name string
	// TypeID is the ckpt type id the type's CheckpointTypeID returns.
	TypeID ckpt.TypeID
	// GoType is the concrete Go type (for example "*Structure"), used by
	// the code generator. Optional otherwise.
	GoType string
	// Fields lists the recorded scalar fields in record order.
	Fields []Field
	// Children lists checkpointable children in record/fold order.
	Children []Child
	// NextChild is the index in Children of this class's intra-list
	// "next" pointer, or -1 if the class is not a list element. A next
	// child must be the last child and must point to the same class.
	NextChild int
}

// Binding supplies the typed accessors the plan executor uses to walk
// concrete objects. The o parameters are the concrete object (for example a
// *Structure) passed as any; accessors type-assert once and use direct
// field access — the monomorphic "inlined" code of the specialized
// implementation.
//
// Child accessors must return an untyped nil for a nil child pointer
// (return nil explicitly, never a typed nil pointer in an interface).
type Binding struct {
	// Info returns the object's checkpoint metadata.
	Info func(o any) *ckpt.Info
	// Record writes the object's local state, exactly as the type's
	// Record method does.
	Record func(o any, e *wire.Encoder)
	// Child returns the i'th child (the list head for list children), or
	// untyped nil.
	Child func(o any, i int) any
}

// Catalog holds the specialization classes and bindings of one program.
type Catalog struct {
	classes  map[string]*Class
	bindings map[string]Binding
	byType   map[ckpt.TypeID]*Class
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		classes:  make(map[string]*Class),
		bindings: make(map[string]Binding),
		byType:   make(map[ckpt.TypeID]*Class),
	}
}

// register adds a class and its binding. The class is copied.
func (c *Catalog) register(cl Class, b Binding) error {
	if cl.Name == "" {
		return fmt.Errorf("%w: empty class name", ErrClass)
	}
	if _, dup := c.classes[cl.Name]; dup {
		return fmt.Errorf("%w: class %q registered twice", ErrClass, cl.Name)
	}
	if b.Info == nil || b.Record == nil {
		return fmt.Errorf("%w: class %q: Info and Record accessors are required", ErrBinding, cl.Name)
	}
	if len(cl.Children) > 0 && b.Child == nil {
		return fmt.Errorf("%w: class %q has children but no Child accessor", ErrBinding, cl.Name)
	}
	if cl.NextChild != -1 {
		if cl.NextChild < 0 || cl.NextChild >= len(cl.Children) {
			return fmt.Errorf("%w: class %q: NextChild %d out of range", ErrClass, cl.Name, cl.NextChild)
		}
		if cl.NextChild != len(cl.Children)-1 {
			return fmt.Errorf("%w: class %q: the next pointer must be the last child", ErrClass, cl.Name)
		}
		nc := cl.Children[cl.NextChild]
		if nc.Class != cl.Name {
			return fmt.Errorf("%w: class %q: next pointer has class %q, must be %q",
				ErrClass, cl.Name, nc.Class, cl.Name)
		}
		if nc.List {
			return fmt.Errorf("%w: class %q: next pointer must not be a list", ErrClass, cl.Name)
		}
	}
	cp := cl
	cp.Fields = append([]Field(nil), cl.Fields...)
	cp.Children = append([]Child(nil), cl.Children...)
	c.classes[cl.Name] = &cp
	c.bindings[cl.Name] = b
	if _, dup := c.byType[cl.TypeID]; !dup {
		c.byType[cl.TypeID] = &cp
	}
	return nil
}

// MustRegister adds a class and its binding, copying the class. It panics on
// an invalid class or binding: catalogs are built at package level, where
// that is a programming error.
func (c *Catalog) MustRegister(cl Class, b Binding) {
	if err := c.register(cl, b); err != nil {
		panic(err)
	}
}

// class returns the registered class with the given name, or nil.
func (c *Catalog) class(name string) *Class { return c.classes[name] }

// classByTypeID returns the registered class whose TypeID is t, or nil. If
// several classes share a type id (unusual, but legal), the first registered
// one wins. It resolves a bag of dirty objects — a mark-queue drain — back
// to specialization classes, for Observer.ObserveDirty and drift checking.
func (c *Catalog) classByTypeID(t ckpt.TypeID) *Class { return c.byType[t] }

// classNames returns the registered class names, sorted.
func (c *Catalog) classNames() []string {
	names := make([]string, 0, len(c.classes))
	for n := range c.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// validate checks cross-class consistency: every child class must be
// registered, and list children must reference list-element classes.
func (c *Catalog) validate() error {
	for _, name := range c.classNames() {
		cl := c.classes[name]
		for _, ch := range cl.Children {
			sub, ok := c.classes[ch.Class]
			if !ok {
				return fmt.Errorf("%w: class %q child %q references unknown class %q",
					ErrClass, cl.Name, ch.Name, ch.Class)
			}
			if ch.List && sub.NextChild < 0 {
				return fmt.Errorf("%w: class %q child %q is a list of %q, which has no next pointer",
					ErrClass, cl.Name, ch.Name, ch.Class)
			}
		}
	}
	return nil
}

// Pattern declares, for one program phase, which classes and child paths may
// be modified between checkpoints. The zero value declares nothing: every
// class MayModify.
type Pattern struct {
	// Name identifies the phase, for plan printing.
	Name string
	// Classes overrides the declaration per class name.
	Classes map[string]ClassMod
	// Children overrides the declaration per child edge, keyed
	// "Class.ChildName". ChildUnmodified prunes the subtree;
	// LastElementOnly (lists) restricts tests to the final element.
	Children map[string]ChildMod
}

// classMod returns the declaration for a class under p.
func (p *Pattern) classMod(name string) ClassMod {
	if p == nil {
		return MayModify
	}
	return p.Classes[name]
}

// childMod returns the edge override for class.child under p.
func (p *Pattern) childMod(class, child string) ChildMod {
	if p == nil {
		return Inherit
	}
	return p.Children[class+"."+child]
}

// validate checks that every referenced class and edge exists in cat.
func (p *Pattern) validate(cat *Catalog) error {
	if p == nil {
		return nil
	}
	for name := range p.Classes {
		if cat.class(name) == nil {
			return fmt.Errorf("%w: pattern %q references unknown class %q", ErrPattern, p.Name, name)
		}
	}
	for key, mod := range p.Children {
		cl, ch, ok := splitEdge(key)
		if !ok {
			return fmt.Errorf("%w: pattern %q: bad edge key %q", ErrPattern, p.Name, key)
		}
		class := cat.class(cl)
		if class == nil {
			return fmt.Errorf("%w: pattern %q references unknown class %q", ErrPattern, p.Name, cl)
		}
		child := class.childByName(ch)
		if child == nil {
			return fmt.Errorf("%w: pattern %q: class %q has no child %q", ErrPattern, p.Name, cl, ch)
		}
		if mod == LastElementOnly && !child.List {
			return fmt.Errorf("%w: pattern %q: LastElementOnly on non-list child %q", ErrPattern, p.Name, key)
		}
	}
	return nil
}

func (cl *Class) childByName(name string) *Child {
	for i := range cl.Children {
		if cl.Children[i].Name == name {
			return &cl.Children[i]
		}
	}
	return nil
}

func splitEdge(key string) (class, child string, ok bool) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '.' {
			return key[:i], key[i+1:], key[:i] != "" && key[i+1:] != ""
		}
	}
	return "", "", false
}

// Package reflectckpt checkpoints object graphs using run-time reflection.
//
// It is the Go analog of the reflection-based checkpointing systems the
// paper discusses (Kasbekar et al., Killijian et al.): no per-class Record
// or Fold code is needed; the structure of each object is discovered —
// repeatedly, at run time — from struct tags. This is the slowest execution
// tier in this repository's engine ladder (reflect < virtual < specialized)
// and stands in for the interpreter/low-tier-JIT rows of the paper's
// cross-JVM measurements.
//
// # Tagging
//
// Checkpointable structs tag the fields that participate in checkpointing:
//
//	type Elem struct {
//		Info ckpt.Info  // checkpoint metadata (untagged, by name)
//		Val  int64      `ckpt:"field"` // scalar local state
//		Next *Elem      `ckpt:"child"` // checkpointable child
//	}
//
// Tagged fields must be exported. Scalars are encoded in declaration order;
// each child contributes its id to the record, then is traversed. This is
// exactly the record/fold protocol, so reflectckpt produces byte-identical
// bodies to the generic ckpt.Writer provided handwritten Record methods
// write tagged fields in declaration order.
//
// A ckpt.Cell[T] tagged `ckpt:"field"` is unwrapped and encoded as its
// value.
//
// # Self-described types
//
// Some wire formats cannot be expressed by struct tags: tagged unions, flat
// object tables, variable-length child lists (the interpreter heap in
// internal/interp is all three). Such a type opts out of the tag schema by
// implementing the SelfDescribed marker; the engine then delegates to the
// type's own Record method for encoding and Fold method for traversal —
// bodies stay byte-identical to the virtual path by construction. This is
// the documented behaviour of reflection-based systems on types they cannot
// introspect: fall back to the class's own serialization hook.
package reflectckpt

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"ickpt/ckpt"
	"ickpt/wire"
)

// ErrSchema reports a struct that cannot be checkpointed by reflection.
var ErrSchema = errors.New("reflectckpt: invalid schema")

// SelfDescribed marks a checkpointable type whose wire format the tag schema
// cannot express (tagged unions, object tables). The engine records such an
// object through its own Record method and traverses it through its own Fold
// method instead of compiling a field plan. The method body is empty; the
// name is the contract.
type SelfDescribed interface {
	ckpt.Checkpointable
	SelfDescribedCheckpoint()
}

// fieldKind classifies a tagged scalar field.
type fieldKind uint8

const (
	kindInt fieldKind = iota + 1
	kindUint
	kindFloat
	kindBool
	kindString
	kindBytes
)

// fieldPlan describes one tagged field.
type fieldPlan struct {
	index int
	kind  fieldKind
	cell  bool // unwrap ckpt.Cell: encode field "V"
	child bool // checkpointable child pointer
}

// schema is the compiled reflection plan for one struct type.
type schema struct {
	typ    reflect.Type
	fields []fieldPlan
	kids   []int // field indices of children, in order
}

// Engine caches per-type schemas. It is safe for concurrent use: a parallel
// fold (parfold.Fold, FoldDirty) shares one engine across its workers. The
// cache is a sync.Map — lock-free on the read path, and two goroutines that
// compile the same type concurrently produce equal schemas, so the last store
// winning is harmless.
type Engine struct {
	schemas sync.Map // reflect.Type -> *schema
}

// NewEngine returns an empty engine; schemas are compiled on first use.
func NewEngine() *Engine {
	return &Engine{}
}

// Checkpoint traverses the structure rooted at root by reflection, recording
// objects into w according to w's mode. The writer must be started. It has
// the parfold.FoldFunc signature: one engine serves every worker of a
// parallel fold.
func (en *Engine) Checkpoint(w *ckpt.Writer, root ckpt.Checkpointable) error {
	if root == nil {
		return nil
	}
	return en.visit(w, w.Emitter(), w.Mode() == ckpt.Full, root)
}

// EmitOne records exactly one object — no traversal — through the engine's
// cached schema: the reflection engine's ckpt.EmitOne, for encoding a
// tracker's dirty set (ckpt.Writer.CheckpointDirty, parfold.FoldDirty).
func (en *Engine) EmitOne(em *ckpt.Emitter, o ckpt.Checkpointable) error {
	_, _, err := en.emit(em, false, o)
	return err
}

// emit is the one record step traversal and dirty emit share: record o if
// always is set or its modified flag is (clearing the flag), count a skip
// otherwise. A SelfDescribed object records through its own Record method and
// has no schema (sc == nil); any other object must be a pointer to a tagged
// struct, returned as sv with its compiled schema for the caller to traverse.
func (en *Engine) emit(em *ckpt.Emitter, always bool, o ckpt.Checkpointable) (sv reflect.Value, sc *schema, err error) {
	if _, self := o.(SelfDescribed); !self {
		v := reflect.ValueOf(o)
		if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
			return sv, nil, fmt.Errorf("%w: %T is not a pointer to struct", ErrSchema, o)
		}
		sv = v.Elem()
		if sc, err = en.schemaFor(sv.Type()); err != nil {
			return sv, nil, err
		}
	}
	info := o.CheckpointInfo()
	if !always && !info.Modified() {
		em.Skip()
		return sv, sc, nil
	}
	p := em.Begin(info, o.CheckpointTypeID())
	if sc == nil {
		o.Record(p)
	} else if err := sc.record(sv, p); err != nil {
		return sv, sc, err
	}
	em.End()
	info.ResetModified()
	return sv, sc, nil
}

func (en *Engine) visit(w *ckpt.Writer, em *ckpt.Emitter, full bool, o ckpt.Checkpointable) error {
	em.Visit()
	sv, sc, err := en.emit(em, full, o)
	if err != nil {
		return err
	}
	if sc == nil {
		// The type owns its traversal; children it folds re-enter through
		// the writer's virtual path, which frames records identically.
		return o.Fold(w)
	}
	for _, idx := range sc.kids {
		fv := sv.Field(idx)
		if fv.IsNil() {
			continue
		}
		child, ok := fv.Interface().(ckpt.Checkpointable)
		if !ok {
			return fmt.Errorf("%w: field %s of %s is not Checkpointable",
				ErrSchema, sv.Type().Field(idx).Name, sv.Type())
		}
		if err := en.visit(w, em, full, child); err != nil {
			return err
		}
	}
	return nil
}

// record encodes the tagged fields of sv in declaration order.
func (sc *schema) record(sv reflect.Value, e *wire.Encoder) error {
	for _, fp := range sc.fields {
		fv := sv.Field(fp.index)
		if fp.child {
			if fv.IsNil() {
				e.Uvarint(ckpt.NilID)
				continue
			}
			child, ok := fv.Interface().(ckpt.Checkpointable)
			if !ok {
				return fmt.Errorf("%w: field %s is not Checkpointable",
					ErrSchema, sc.typ.Field(fp.index).Name)
			}
			e.Uvarint(child.CheckpointInfo().ID())
			continue
		}
		if fp.cell {
			fv = fv.FieldByName("V")
		}
		switch fp.kind {
		case kindInt:
			e.Varint(fv.Int())
		case kindUint:
			e.Uvarint(fv.Uint())
		case kindFloat:
			e.Float64(fv.Float())
		case kindBool:
			e.Bool(fv.Bool())
		case kindString:
			e.String(fv.String())
		case kindBytes:
			e.BytesField(fv.Bytes())
		}
	}
	return nil
}

// Restore decodes the tagged fields of o (written by this package or by an
// order-compatible Record method), resolving children through res. It lets
// types implement ckpt.Restorable in one line.
func (en *Engine) Restore(o ckpt.Checkpointable, d *wire.Decoder, res *ckpt.Resolver) error {
	if _, ok := o.(SelfDescribed); ok {
		r, ok := o.(ckpt.Restorable)
		if !ok {
			return fmt.Errorf("%w: self-described %T is not Restorable", ErrSchema, o)
		}
		return r.Restore(d, res)
	}
	v := reflect.ValueOf(o)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("%w: %T is not a pointer to struct", ErrSchema, o)
	}
	sv := v.Elem()
	sc, err := en.schemaFor(sv.Type())
	if err != nil {
		return err
	}
	for _, fp := range sc.fields {
		fv := sv.Field(fp.index)
		if fp.child {
			id := d.Uvarint()
			child, err := res.Lookup(id)
			if err != nil {
				return err
			}
			if child == nil {
				fv.SetZero()
				continue
			}
			cv := reflect.ValueOf(child)
			if !cv.Type().AssignableTo(fv.Type()) {
				return fmt.Errorf("%w: object %d has type %s, field %s wants %s",
					ckpt.ErrTypeConflict, id, cv.Type(), sc.typ.Field(fp.index).Name, fv.Type())
			}
			fv.Set(cv)
			continue
		}
		if fp.cell {
			fv = fv.FieldByName("V")
		}
		switch fp.kind {
		case kindInt:
			fv.SetInt(d.Varint())
		case kindUint:
			fv.SetUint(d.Uvarint())
		case kindFloat:
			fv.SetFloat(d.Float64())
		case kindBool:
			fv.SetBool(d.Bool())
		case kindString:
			fv.SetString(d.String())
		case kindBytes:
			fv.SetBytes(d.BytesField())
		}
	}
	return d.Err()
}

// schemaFor compiles (and caches) the schema for t.
func (en *Engine) schemaFor(t reflect.Type) (*schema, error) {
	if sc, ok := en.schemas.Load(t); ok {
		return sc.(*schema), nil
	}
	sc := &schema{typ: t}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("ckpt")
		if !ok {
			continue
		}
		if !f.IsExported() {
			return nil, fmt.Errorf("%w: tagged field %s.%s is unexported", ErrSchema, t, f.Name)
		}
		switch tag {
		case "field":
			fp := fieldPlan{index: i}
			ft := f.Type
			if isCell(ft) {
				fp.cell = true
				vf, _ := ft.FieldByName("V")
				ft = vf.Type
			}
			switch ft.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				fp.kind = kindInt
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				fp.kind = kindUint
			case reflect.Float32, reflect.Float64:
				fp.kind = kindFloat
			case reflect.Bool:
				fp.kind = kindBool
			case reflect.String:
				fp.kind = kindString
			case reflect.Slice:
				if ft.Elem().Kind() != reflect.Uint8 {
					return nil, fmt.Errorf("%w: field %s.%s: only []byte slices are supported",
						ErrSchema, t, f.Name)
				}
				fp.kind = kindBytes
			default:
				return nil, fmt.Errorf("%w: field %s.%s has unsupported kind %s",
					ErrSchema, t, f.Name, ft.Kind())
			}
			sc.fields = append(sc.fields, fp)
		case "child", "next", "list":
			if f.Type.Kind() != reflect.Pointer {
				return nil, fmt.Errorf("%w: child field %s.%s must be a pointer", ErrSchema, t, f.Name)
			}
			sc.fields = append(sc.fields, fieldPlan{index: i, child: true})
			sc.kids = append(sc.kids, i)
		default:
			return nil, fmt.Errorf("%w: field %s.%s has unknown tag %q", ErrSchema, t, f.Name, tag)
		}
	}
	en.schemas.Store(t, sc)
	return sc, nil
}

// isCell reports whether t is an instantiation of ckpt.Cell.
func isCell(t reflect.Type) bool {
	if t.Kind() != reflect.Struct || t.PkgPath() != "ickpt/ckpt" {
		return false
	}
	if len(t.Name()) < 5 || t.Name()[:5] != "Cell[" {
		return false
	}
	_, ok := t.FieldByName("V")
	return ok
}

package ckpt

import (
	"errors"
	"hash/fnv"

	"ickpt/wire"
)

// TypeID identifies a checkpointable type in the stream. It must be stable
// across program runs; TypeIDOf derives it from the type's registered name.
type TypeID uint32

// TypeIDOf returns the stable TypeID for a registered type name (FNV-1a of
// the name). Registry.MustRegister rejects colliding names.
func TypeIDOf(name string) TypeID {
	h := fnv.New32a()
	h.Write([]byte(name))
	return TypeID(h.Sum32())
}

// Mode selects full or incremental checkpointing.
type Mode uint8

// Checkpoint modes.
const (
	// Full records every visited object regardless of its modified flag.
	Full Mode = iota + 1
	// Incremental records only objects whose modified flag is set,
	// clearing the flag as they are recorded.
	Incremental
)

// String returns "full" or "incremental".
func (m Mode) String() string {
	switch m {
	case Full:
		return "full"
	case Incremental:
		return "incremental"
	default:
		return "invalid"
	}
}

// Checkpointable is implemented by every object that participates in
// checkpointing. It is the Go rendering of the paper's Checkpointable
// interface.
//
// Record must write the object's local state: scalar fields, plus — for each
// checkpointable child — the child's id (NilID for nil). Fold must invoke
// w.Checkpoint on each non-nil child, in the same order that Record wrote
// their ids. Record and Fold must be deterministic functions of the object's
// state.
type Checkpointable interface {
	// CheckpointInfo returns the object's checkpoint metadata.
	CheckpointInfo() *Info
	// CheckpointTypeID returns the object's stable type identifier.
	CheckpointTypeID() TypeID
	// Record writes the object's local state to e.
	Record(e *wire.Encoder)
	// Fold applies w.Checkpoint to each checkpointable child.
	Fold(w *Writer) error
}

// Restorable extends Checkpointable with the inverse of Record: Restore
// reads the fields written by Record, resolving child ids through res.
//
// Restore runs on payloads recovery read from disk, which may be well framed
// and still lie. Its allocation must be bounded by the payload: a loop or
// allocation sized by a decoded count takes that count from d.Count, which
// fails the decoder when the count claims more elements than the unread
// bytes can hold, never from a raw d.Uvarint or d.Varint.
type Restorable interface {
	Checkpointable
	// Restore reads the object's local state from d, in the order Record
	// wrote it, resolving each child id via res.
	Restore(d *wire.Decoder, res *Resolver) error
}

// Errors returned by the writer and rebuilder.
var (
	// ErrNotStarted reports Checkpoint or Finish on a writer with no
	// checkpoint in progress.
	ErrNotStarted = errors.New("ckpt: writer not started")
	// ErrBadBody reports a checkpoint body that cannot be parsed.
	ErrBadBody = errors.New("ckpt: malformed checkpoint body")
	// ErrUnknownType reports a TypeID with no registered factory.
	ErrUnknownType = errors.New("ckpt: unknown type id")
	// ErrUnknownObject reports a child id that no record defines.
	ErrUnknownObject = errors.New("ckpt: unresolved object id")
	// ErrTypeConflict reports two registrations whose names collide, or a
	// resolved object with an unexpected type.
	ErrTypeConflict = errors.New("ckpt: type conflict")
	// ErrDeltaBase reports a delta record that cannot be materialized: no
	// earlier payload for its object exists in the stream, or the payload
	// that does is not the base the delta was encoded against.
	ErrDeltaBase = errors.New("ckpt: delta base missing or mismatched")
)

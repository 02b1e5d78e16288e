package ckpt

import (
	"fmt"

	"ickpt/wire"
)

// Writer is the generic checkpoint driver: the paper's Checkpoint class. It
// traverses checkpointable structures through the Checkpointable interface
// (virtual dispatch), testing the modified flag of each object in
// Incremental mode.
//
// Usage:
//
//	w := ckpt.NewWriter()
//	w.Start(ckpt.Incremental)
//	for _, root := range roots {
//		if err := w.Checkpoint(root); err != nil { ... }
//	}
//	body, stats, err := w.Finish()
//
// The writer is reusable: Start begins a new body and bumps the epoch.
// Writer is not safe for concurrent use.
type Writer struct {
	emitter Emitter
	enc     *wire.Encoder
	mode    Mode
	epoch   uint64
	started bool

	// visitErr is the first error any Checkpoint call returned for the body
	// in progress. Finish refuses to hand out the half-built body once it is
	// set: a truncated body would rebuild into a corrupted graph.
	visitErr error

	// session, when set, receives each epoch's clear-set when the epoch ends
	// and is the commit/abort authority for it. Without a session a failed
	// epoch's flags are still re-marked, but nothing protects bodies lost
	// after a successful Finish (see Settle).
	session *Session

	// shadow, when set, enables sub-object delta records: the emitter diffs
	// large payloads against the cache and bodies carry per-record kinds
	// (body version 2). Staged shadow updates resolve with the epoch (see
	// Settle).
	shadow *ShadowCache

	// collect, when non-nil, switches visit into traversal-only mode:
	// reachable objects are indexed by id and nothing is emitted or cleared.
	// Used by IndexRoots (and through it by Tracker.Watch).
	collect map[uint64]Checkpointable
}

// WriterOption configures a Writer.
type WriterOption interface {
	apply(*Writer)
}

type writerOptionFunc func(*Writer)

func (f writerOptionFunc) apply(w *Writer) { f(w) }

// WithSession attaches a commit/abort session: every epoch's clear-set is
// handed to s when the epoch finishes (pending until s.Commit or s.Abort),
// and an epoch that fails — a fold error, or a Start that discards a body
// in progress — is aborted through s immediately. See Session.
func WithSession(s *Session) WriterOption {
	return writerOptionFunc(func(w *Writer) { w.session = s })
}

// WithDeltaEncoding enables sub-object delta records: each payload larger
// than minSize bytes is remembered in a shadow cache across epochs, and an
// object whose payload changed a little is shipped as a copy/patch delta
// against its previous payload (wire.KindDelta) instead of in full. Bodies
// gain a per-record kind byte (body version 2); Rebuilder and stablelog
// replay materialize deltas transparently. Payloads that churn heavily fall
// back to full records adaptively. minSize <= 0 shadows every payload.
func WithDeltaEncoding(minSize int) WriterOption {
	return writerOptionFunc(func(w *Writer) { w.shadow = NewShadowCache(minSize) })
}

// WithShadowCache is WithDeltaEncoding with an existing cache: drivers that
// rotate several writers over one logical stream (a dirty fold and its
// Full-mode fallback writer) share the shadow state. Each such writer settles
// its own epochs' shadows; a writer that must diff against the cache without
// settling is built detached instead (Emitter.SetShadow). A nil cache leaves
// delta encoding off.
func WithShadowCache(c *ShadowCache) WriterOption {
	return writerOptionFunc(func(w *Writer) { w.shadow = c })
}

// NewWriter returns a Writer.
func NewWriter(opts ...WriterOption) *Writer {
	w := &Writer{}
	for _, o := range opts {
		o.apply(w)
	}
	if w.shadow != nil {
		w.emitter.SetShadow(w.shadow)
	}
	if w.enc == nil {
		w.enc = wire.NewEncoder(0)
	}
	return w
}

// Start begins a new checkpoint body in the given mode, under the epoch after
// the writer's last one; the first checkpoint has epoch 1. See StartAt.
func (w *Writer) Start(mode Mode) { w.StartAt(mode, w.epoch+1) }

// StartAt begins a new checkpoint body in the given mode with an explicit
// epoch: the body header carries epoch and the writer's own counter is pinned
// to it, so a later Start continues from epoch+1. Drivers that own the epoch
// sequence themselves (the parallel folder, the tenant service) start every
// body this way. Any body in progress is discarded first (Discard), and the
// re-marks an Ack parked on the attached session are applied before the body
// begins (see Session.Ack).
func (w *Writer) StartAt(mode Mode, epoch uint64) {
	w.Discard()
	w.session.remarkParked()
	w.epoch = epoch
	w.mode = mode
	w.enc.Reset()
	w.emitter.Reset(w.enc, mode, epoch)
	w.started = true
	w.visitErr = nil
}

// Discard aborts the body in progress, if any: its epoch is settled as
// failed, so the modified flags its records cleared are re-marked (through
// the session when one is attached) and the abandoned state is recaptured
// rather than silently lost. Drivers call it when a fold step fails outside
// Checkpoint and the body must not be finished; StartAt calls it for a body
// that was never finished.
func (w *Writer) Discard() {
	if w.started {
		w.settle(true)
	}
}

// settle ends the epoch in progress, handing what its records left in the
// emitter to the epoch's authority. A detached writer's driver has already
// taken both sets, leaving nothing here to resolve.
func (w *Writer) settle(failed bool) {
	w.started = false
	Settle(w.session, w.shadow, w.epoch, w.mode,
		w.emitter.TakeClears(), w.emitter.TakeShadowStages(), failed)
}

// SwapEncoder points the writer at enc for the bodies that follow. It is the
// zero-copy handoff hook: a caller that sinks bodies into
// stablelog.AsyncWriter can swap in a log-owned buffer
// (AsyncWriter.Reserve) before each Start, let Record write straight into
// it, and submit it without a copy (AsyncWriter.Submit). Must not be called
// while a body is in progress; the previous encoder — and any body aliasing
// it — stays owned by whoever supplied it.
func (w *Writer) SwapEncoder(enc *wire.Encoder) {
	w.enc = enc
}

// BodyLen returns the number of bytes written to the body in progress,
// header included. It lets a parallel fold slice the header and the per-root
// chunks out of a worker's body.
func (w *Writer) BodyLen() int { return w.enc.Len() }

// Checkpoint traverses the structure rooted at o, recording objects
// according to the writer's mode. It corresponds to the paper's
// Checkpoint.checkpoint method: in Incremental mode, record o if its
// modified flag is set (clearing the flag), then fold over its children; in
// Full mode, record o unconditionally, then fold.
func (w *Writer) Checkpoint(o Checkpointable) error {
	if !w.started {
		return ErrNotStarted
	}
	err := w.visit(o)
	if err != nil && w.visitErr == nil {
		w.visitErr = err
	}
	return err
}

// CheckpointDirty encodes a tracker's dirty set instead of traversing: it
// drains t's mark-queue (Tracker.Take) and emits each dirty object, in
// canonical ascending-id order, through emit — ckpt.EmitObject for virtual
// dispatch, or a specialized engine's per-object routine. The body produced
// is an ordinary incremental body; its cost is O(dirty), not O(live graph).
//
// The writer must be started in Incremental mode (a dirty set is
// meaningless for a Full body: ErrDirtyMode). Callers are expected to ask
// the tracker for the mode first — mode := t.NextMode(ckpt.Incremental) —
// and fall back to a traversal fold plus Tracker.Watch when the tracker has
// degraded.
//
// If emit fails, the un-emitted remainder of the dirty set is re-enqueued
// (Tracker.Requeue) and the error recorded, so Finish aborts the epoch and
// the combination of re-enqueue and abort re-marking recaptures the entire
// dirty set.
//
// A nil emit selects the virtual-dispatch path (EmitObject's behaviour)
// without an indirect call per object — the mirror of the traversal fold,
// which also records through Emitter.EmitIfModified directly.
func (w *Writer) CheckpointDirty(t *Tracker, emit EmitOne) error {
	if !w.started {
		return ErrNotStarted
	}
	if w.mode != Incremental {
		return ErrDirtyMode
	}
	if emit == nil {
		// Fused drain: record hits straight off the tracker's dense scan,
		// skipping the taken-slice materialization and its second pass over
		// the object metadata. A false return means marked objects escaped
		// the scan; Take recovers exactly those (the recorded ones are clean
		// now), so the epoch still captures the full dirty set.
		if t.scanReady() && t.drainScan(&w.emitter) {
			return nil
		}
		for _, o := range t.Take() {
			w.emitter.Visit()
			w.emitter.EmitIfModified(o)
		}
		return nil
	}
	objs := t.Take()
	for i, o := range objs {
		w.emitter.Visit()
		if err := emit(&w.emitter, o); err != nil {
			t.Requeue(objs[i:])
			if w.visitErr == nil {
				w.visitErr = err
			}
			return err
		}
	}
	return nil
}

func (w *Writer) visit(o Checkpointable) error {
	if w.collect != nil {
		info := o.CheckpointInfo()
		if _, seen := w.collect[info.ID()]; seen {
			return nil
		}
		w.collect[info.ID()] = o
		return o.Fold(w)
	}
	w.emitter.Visit()
	if w.mode == Full {
		w.emitter.Emit(o)
	} else {
		w.emitter.EmitIfModified(o)
	}
	return o.Fold(w)
}

// Finish completes the body and returns it along with traversal statistics.
// The returned slice aliases the writer's buffer and is invalidated by the
// next Start; copy it if it must outlive the writer's reuse.
//
// If any Checkpoint call failed since Start, Finish refuses the half-built
// body: it returns a nil body and the first visit error, and settles the
// epoch as failed — re-marking every modified flag the partial encode
// cleared (through the session when one is attached) so the next incremental
// checkpoint recaptures the state the discarded body carried.
//
// On success with a session attached, the epoch's clear-set is handed to
// the session and stays pending until Session.Commit or Session.Abort.
func (w *Writer) Finish() ([]byte, Stats, error) {
	if !w.started {
		return nil, Stats{}, ErrNotStarted
	}
	err := w.visitErr
	w.visitErr = nil
	w.settle(err != nil)
	if err != nil {
		return nil, w.emitter.Stats(), fmt.Errorf("ckpt: epoch %d aborted, body discarded: %w", w.epoch, err)
	}
	return w.enc.Bytes(), w.emitter.Stats(), nil
}

// Epoch returns the epoch of the checkpoint in progress (or the last
// completed one).
func (w *Writer) Epoch() uint64 { return w.epoch }

// Mode returns the mode of the checkpoint in progress (or the last completed
// one).
func (w *Writer) Mode() Mode { return w.mode }

// Shadow returns the shadow cache whose epochs the writer settles, nil when
// delta encoding is off (or the writer is detached) — drivers hand it to
// other writers of the same stream (WithShadowCache,
// parfold.WithShadowCache) and tests assert the commit/abort contract
// through it.
func (w *Writer) Shadow() *ShadowCache { return w.shadow }

// Emitter exposes the writer's low-level sink. It is used by compiled
// specialization plans and generated specialized functions so that they
// write into the same body with the same framing as the generic driver. The
// emitter is only valid between Start and Finish.
func (w *Writer) Emitter() *Emitter { return &w.emitter }

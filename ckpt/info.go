package ckpt

// NilID is the reserved object id meaning "no object". Child references
// encode NilID for nil pointers; Domains never issue it.
const NilID uint64 = 0

// Info holds the per-object checkpoint metadata: a unique identifier, the
// modified flag used by incremental checkpointing, and — when the object
// lives under a Tracker — the dirty-index bookkeeping that lets an
// incremental epoch fold only the modified objects.
//
// Info corresponds to the paper's CheckpointInfo class. A new object's flag
// starts set, so the object is captured by the next incremental checkpoint.
// Info is not safe for concurrent use, except that ID may be called while
// another goroutine changes the flags: a parallel fold's worker reads the ids
// of children that other workers are recording. A persistence goroutine's
// Session.Ack writes no Info; it parks its re-marks for the application's
// goroutine (see Session).
//
// Every checkpointable object embeds an Info, tracked or not, so its size is
// paid once per object in every graph: 16 bytes, laid out as
//
//	flags    16 bits  6 spare bits; fresh, queued and modified; and the
//	                  7-bit shadowSkip counter in the low bits
//	idLo     16 bits  the object's id, below idLimit (2^48), split in two
//	idHi     32 bits
//	tracker  64 bits  the dirty index the object reports to, nil when
//	                  untracked
//
// modified is the paper's flag. fresh marks an allocation the tracker's view
// has not absorbed yet (counted in Tracker.fresh; Watch or Track settles it).
// queued reports that the object is in its tracker's mark-queue, so repeated
// Marks between two checkpoints enqueue once. The id has fields of its own
// rather than bits of the flags' word so that reading it never races with a
// write to the flags, and neither needs an atomic instruction. Every bit has
// to earn its place against the per-object cost: state that only a tracker or
// a cache needs lives there, not here.
//
// While shadowSkip is nonzero, a delta-enabled emitter ships the object's
// payload whole without consulting the cache, decrementing per emit. The
// report that arms the window stales the cache entry up front, so the
// window's full-payload emits cannot leave a poisoned diff base behind. The
// counter lives here rather than in the cache so the backed-off steady state
// costs one load and one store per emit instead of the cache's lock and map
// lookup; like the modified flag, it is only ever touched by the one writer
// (or parallel-fold shard) that owns the object's records.
type Info struct {
	flags   uint16
	idLo    uint16
	idHi    uint32
	tracker *Tracker
}

// The layout of Info.flags.
const (
	skipMask    = 1<<7 - 1
	modifiedBit = skipMask + 1
	queuedBit   = modifiedBit << 1
	freshBit    = queuedBit << 1
)

// idLimit bounds the ids an Info can hold: a Domain never issues one at or
// past it, and Build refuses a body that names one.
const idLimit = 1 << 48

// skipMax must fit the counter.
const _ uint = skipMask - skipMax

// NewInfo issues a fresh identifier from d and returns an Info with the
// modified flag set. If a Tracker is attached to the domain
// (Domain.AttachTracker), the fresh object is tagged with it and counted as
// an unsettled allocation: until Tracker.Watch or Tracker.Track registers
// the object, the tracker's dirty set may be incomplete, so it degrades the
// next Take to a full traversal — the conservative answer for an object the
// dirty index cannot see. (NewInfo cannot enqueue the object itself: the
// returned Info is copied into its owner, so a pointer captured here would
// dangle.)
func NewInfo(d *Domain) Info {
	i := infoWith(d.next(), modifiedBit)
	if d.tracker != nil {
		i.tracker = d.tracker
		i.flags |= freshBit
		d.tracker.fresh++
	}
	return i
}

// RestoredInfo returns an Info carrying a previously-issued identifier, for
// use by Registry factories when rebuilding objects from a checkpoint. The
// modified flag starts clear: restored state is by definition already
// captured. It panics on an id no Domain can issue (Build refuses those
// before any factory runs).
func RestoredInfo(id uint64) Info {
	if id >= idLimit {
		panic("ckpt: RestoredInfo: id out of range")
	}
	return infoWith(id, 0)
}

// infoWith returns an Info holding id, which must be below idLimit, and flags.
func infoWith(id uint64, flags uint16) Info {
	return Info{flags: flags, idLo: uint16(id), idHi: uint32(id >> 16)}
}

// ID returns the object's unique identifier.
func (i *Info) ID() uint64 { return uint64(i.idHi)<<16 | uint64(i.idLo) }

// Modified reports whether the object has been modified since it was last
// recorded in a checkpoint.
func (i *Info) Modified() bool { return i.flags&modifiedBit != 0 }

// SetModified sets the raw modified flag without informing any tracker.
// Prefer Mark: a direct flag store bypasses the dirty index, so an O(dirty)
// incremental epoch would silently omit the object (the ckptvet dirtywrite
// analyzer reports SetModified calls outside this package for exactly that
// reason). SetModified remains for flag maintenance that must not enqueue.
func (i *Info) SetModified() { i.flags |= modifiedBit }

// Mark is the write barrier: it sets the modified flag and, when the object
// is registered with a Tracker, enqueues it into the tracker's mark-queue so
// the next dirty fold captures it. Marking an already-queued object is a
// no-op beyond the flag, so repeated writes between two checkpoints cost one
// queue slot.
func (i *Info) Mark() {
	i.flags |= modifiedBit
	if i.tracker != nil && i.flags&queuedBit == 0 {
		i.flags |= queuedBit
		i.tracker.enqueue(i)
	}
}

// MarkOn registers the object with t and marks it: the registration path for
// objects whose Domain has no tracker attached (restored graphs, hand-built
// fixtures). The object must still be in the tracker's view by the next Take
// — via Watch or Track — or the tracker conservatively degrades to a full
// traversal.
func (i *Info) MarkOn(t *Tracker) {
	i.tracker = t
	i.Mark()
}

// ResetModified clears the modified flag. The Writer calls this as it
// records an object; user code rarely needs it.
//
// Clearing the flag also retires the object's mark-queue entry, if any: the
// entry would be stale (a dirty fold must not emit a clean object), so the
// queued bit is dropped — a later Mark simply re-enqueues — and the
// tracker's live-entry count is decremented. The count is what lets Take's
// scan path verify the dirty set without sweeping the queue. The decrement
// is atomic because a parallel fold's workers reset flags concurrently.
func (i *Info) ResetModified() {
	f := i.flags
	i.flags = f &^ (modifiedBit | queuedBit)
	if f&queuedBit != 0 && i.tracker != nil {
		i.tracker.liveQueued.Add(-1)
	}
}

// Domain issues unique object identifiers. The paper uses a static counter;
// a Domain scopes the counter to one checkpointed universe so that programs
// and tests can run several universes independently.
//
// Domain is not safe for concurrent use.
type Domain struct {
	last    uint64
	tracker *Tracker
}

// AttachTracker makes every Info the domain issues from now on report to t:
// new objects are tagged with the tracker and counted as unsettled
// allocations until Watch, Track, or Adopt registers them (see NewInfo).
// Attach nil to detach.
func (d *Domain) AttachTracker(t *Tracker) { d.tracker = t }

// Adopt registers a freshly allocated object with the tracker attached to
// the domain, settling the fresh-allocation debt NewInfo charged. Without
// it, a single allocation between two checkpoints forces the attached
// tracker's next Take — and therefore the whole epoch — to degrade to a Full
// traversal: the conservative answer for an object the dirty index cannot
// see. Calling Adopt at the allocation site, before the object can be marked
// or copied, keeps churning workloads (an interpreter allocating
// environments and cons cells every step) on the O(dirty) incremental path:
// the newborn joins the view with its identity intact (its embedded Info is
// the one every future Mark will enqueue) and, being born modified, is
// queued for the next dirty fold immediately.
//
// With no tracker attached Adopt is a no-op, so allocation sites can call it
// unconditionally.
func (d *Domain) Adopt(o Checkpointable) {
	if d.tracker != nil {
		d.tracker.Track(o)
	}
}

// NewDomain returns a Domain whose first issued id is 1 (NilID is reserved).
func NewDomain() *Domain { return &Domain{} }

// next issues the next id. It panics rather than issue one an Info cannot
// hold.
func (d *Domain) next() uint64 {
	if d.last >= idLimit-1 {
		panic("ckpt: Domain id space exhausted")
	}
	d.last++
	return d.last
}

// Last returns the most recently issued id, or NilID if none has been issued.
func (d *Domain) Last() uint64 { return d.last }

// advance ensures that future ids are strictly greater than id. Build calls
// it after rebuilding state from a checkpoint so that newly allocated objects
// do not collide with restored ones.
func (d *Domain) advance(id uint64) { d.last = max(d.last, id) }

// Cell is a tracked field: a value whose Set marks the owning object's Info
// as modified. It stands in for the write barriers that the paper's
// preprocessor would insert into Java setters.
//
// Read with Get (or the exported V field); write with Set so the dirty bit
// is maintained.
type Cell[T any] struct {
	// V is the current value. Prefer Set for writes; direct assignment
	// bypasses modification tracking.
	V T
}

// Get returns the current value.
func (c *Cell[T]) Get() T { return c.V }

// Set stores v and marks owner as modified (through Mark, so a tracker
// attached to the owner sees the write).
func (c *Cell[T]) Set(owner *Info, v T) {
	c.V = v
	owner.Mark()
}

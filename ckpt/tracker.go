package ckpt

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"
)

// This file implements the dirty index that makes an incremental checkpoint
// cost O(dirty) instead of O(live graph).
//
// The generic incremental fold traverses every reachable object only to test
// a modified flag that is almost always clear; the paper attacks that waste
// statically, by specializing the traversal to the modification pattern. The
// Tracker attacks it dynamically: Info.Mark enqueues the object into a
// per-tracker mark-queue the moment it is dirtied, so an incremental epoch
// folds exactly the dirty set — resolved to objects through the RootIndex
// machinery — and never visits a clean object at all. The two optimizations
// compose: a specialized plan's per-class record routine is the natural
// EmitOne for a dirty fold.

// ErrDirtyMode reports a dirty fold requested in a mode other than
// Incremental. A dirty fold encodes only the marked objects, which is
// meaningless for a Full body; take a Full checkpoint with a traversal fold
// and re-Watch the tracker instead.
var ErrDirtyMode = errors.New("ckpt: dirty fold requires Incremental mode")

// EmitOne records exactly one object — no traversal — into em: test the
// modified flag, Begin/Record/End, clear the flag. It is the per-object
// projection of an engine's fold, used to encode a tracker's dirty set.
// EmitObject is the virtual-dispatch implementation; reflectckpt.Engine,
// spec.Plan, and generated routines (cmd/ckptgen) provide specialized ones.
type EmitOne func(em *Emitter, o Checkpointable) error

// EmitObject is the virtual-dispatch EmitOne: it records o through its
// Record method if its modified flag is set.
func EmitObject(em *Emitter, o Checkpointable) error {
	em.EmitIfModified(o)
	return nil
}

// Tracker is a dirty index over one checkpointed object graph: a mark-queue
// fed by Info.Mark plus a RootIndex view resolving queued ids to objects.
//
// The contract mirrors the session protocol's shape. Objects are registered
// into the tracker's view by Watch (a traversal over the roots) or Track
// (one object at a time); registration tags each Info with the tracker so
// that Mark — the write barrier Cell.Set and migrated call sites use —
// enqueues the object the moment it is dirtied. A checkpoint then drains the
// queue with Take and folds only those objects.
//
// The index degrades, never lies: whenever an object is dirtied outside the
// tracker's view — allocated after the last Watch (Domain.AttachTracker
// counts those), marked but unresolvable, or replaced so the registered Info
// no longer matches — the tracker flags itself degraded and NextMode forces
// the next checkpoint to Full, whose traversal recaptures everything live.
// Watch after that Full rebuilds the view and clears the degradation,
// exactly as Session.NextMode recovers from an unresolvable abort.
//
// Tracker is not safe for concurrent use: Mark, Take, and Watch must come
// from the mutator thread, like every Info operation. The queue's backing
// array, the taken slice, and the view survive across epochs, so a
// steady-state Take allocates nothing.
type Tracker struct {
	queue    []*Info
	view     *RootIndex
	taken    []Checkpointable
	degraded bool
	// keys and sortBuf are Take's scratch: the queue's entries paired with
	// their ids, and the radix sort's second buffer (see sortKeys).
	keys, sortBuf []keyed
	// denseInfos/denseObjs cache the view as struct-of-arrays slices indexed
	// by id when the id space is dense enough (Domains issue sequential ids,
	// so it almost always is): Take then resolves each queued id with an
	// array index instead of a map lookup, and large dirty sets are collected
	// by an in-order scan instead of a sort. The scan walks the 8-byte info
	// slots in order, but liveAt loads the Info behind every non-nil slot —
	// its flags, id and tracker — so a sweep reads one header line per
	// registered object, dirty or clean; the paired object slot is loaded
	// only on a hit. The two slices always have equal length; both nil when
	// the ids are too sparse. The view map stays authoritative either way.
	denseInfos []*Info
	denseObjs  []Checkpointable
	// fresh counts objects allocated under an attached Domain since the last
	// Watch: objects the view cannot resolve yet. Any Take while fresh > 0
	// degrades the tracker (the dirty set may be incomplete).
	fresh int
	// liveQueued counts mark-queue entries whose modified flag is still set:
	// enqueue increments it, Info.ResetModified decrements it as it retires
	// an entry. Take's scan path checks its collected dirty set against this
	// count in O(1) instead of sweeping the queue; any mismatch diverts to
	// the precise per-entry path. Atomic because a parallel fold's workers
	// reset flags concurrently.
	liveQueued atomic.Int64
	// unadopted reports that Track registered an Info already claiming queue
	// membership: a by-value copy of a queued object, or a MarkOn-ed one.
	// The scans cannot tell such an Info from the entry that was enqueued,
	// so scanReady refuses them until Watch rebuilds the view; the precise
	// path, which compares each entry's address with its registered
	// object's Info, resolves both cases correctly.
	unadopted bool
}

// denseBound reports whether an id space reaching maxID is dense enough to
// cache n registered objects as a slice: at worst 4x the object count (plus
// slack for small graphs) of mostly-nil slots.
func denseBound(maxID uint64, n int) bool {
	return n > 0 && maxID < uint64(4*n+1024)
}

// NewTracker returns an empty tracker. Register objects with Watch or Track
// (and attach the tracker to the issuing Domain so allocations are counted)
// before relying on Take.
func NewTracker() *Tracker {
	return &Tracker{view: &RootIndex{objs: make(map[uint64]Checkpointable)}}
}

// enqueue appends i to the mark-queue and counts the live entry. Callers
// (Info.Mark, Watch, Track) have already set the queued bit.
func (t *Tracker) enqueue(i *Info) {
	t.queue = append(t.queue, i)
	t.liveQueued.Add(1)
}

// Watch rebuilds the tracker's view as the RootIndex of the graphs reachable
// from roots, tags every reachable Info with the tracker, re-enqueues every
// reachable modified object, and clears the degraded state and the fresh
// count. Call it after building the graph, and again after every Full
// checkpoint taken to recover from degradation (the Full body captured
// everything live, so the rebuilt view and queue are complete again).
//
// On a traversal error the tracker is left degraded and the error returned.
func (t *Tracker) Watch(roots ...Checkpointable) error {
	// Empty the queue first, clearing queued bits through the captured
	// pointers so stale entries can never block a future Mark from
	// enqueueing.
	for _, i := range t.queue {
		i.flags &^= queuedBit
	}
	t.queue = t.queue[:0]
	t.liveQueued.Store(0)
	idx, err := IndexRoots(roots...)
	if err != nil {
		t.degraded = true
		return err
	}
	t.view = idx
	var maxID uint64
	for id := range idx.objs {
		maxID = max(maxID, id)
	}
	if denseBound(maxID, len(idx.objs)) {
		need := int(maxID + 1)
		t.denseInfos = slices.Grow(t.denseInfos[:0], need)[:need]
		t.denseObjs = slices.Grow(t.denseObjs[:0], need)[:need]
		clear(t.denseInfos)
		clear(t.denseObjs)
	} else {
		t.denseInfos, t.denseObjs = nil, nil
	}
	for id, o := range idx.objs {
		info := o.CheckpointInfo()
		if t.denseInfos != nil {
			t.denseInfos[id] = info
			t.denseObjs[id] = o
		}
		info.tracker = t
		info.flags &^= freshBit | queuedBit
		if info.Modified() {
			info.flags |= queuedBit
			t.enqueue(info)
		}
	}
	t.fresh = 0
	t.degraded = false
	t.unadopted = false
	return nil
}

// Track registers one object in the tracker's view, tags its Info, and
// enqueues it if it is already modified. It is the incremental alternative
// to a full Watch when the caller knows exactly which object joined the
// graph: tracking a freshly allocated object settles its fresh debt, so an
// allocation that is immediately Tracked does not degrade the tracker.
func (t *Tracker) Track(o Checkpointable) {
	info := o.CheckpointInfo()
	if info.flags&freshBit != 0 && info.tracker == t {
		info.flags &^= freshBit
		if t.fresh > 0 {
			t.fresh--
		}
	}
	info.tracker = t
	if info.flags&queuedBit != 0 {
		t.unadopted = true
	}
	id := info.ID()
	t.view.objs[id] = o
	if t.denseInfos != nil {
		if n := int(id) + 1 - len(t.denseInfos); n > 0 && denseBound(id, len(t.view.objs)) {
			t.denseInfos = append(t.denseInfos, make([]*Info, n)...)
			t.denseObjs = append(t.denseObjs, make([]Checkpointable, n)...)
		}
		if id < uint64(len(t.denseInfos)) {
			t.denseInfos[id] = info
			t.denseObjs[id] = o
		} else {
			t.denseInfos, t.denseObjs = nil, nil
		}
	}
	if info.Modified() && info.flags&queuedBit == 0 {
		info.flags |= queuedBit
		t.enqueue(info)
	}
}

// Take drains the mark-queue and returns the dirty set in canonical
// (ascending id) order, ready to fold: every returned object is registered,
// distinct, and has its modified flag set. Entries whose flag was cleared
// since they were marked (a traversal fold ran in between) are dropped.
// Entries the view cannot resolve — or that resolve to an object whose Info
// is no longer the one that was marked — degrade the tracker, as does any
// unsettled allocation (see Domain.AttachTracker): the dirty set may then be
// incomplete, so NextMode forces the next checkpoint to Full.
//
// The returned slice is owned by the tracker and invalidated by the next
// Take.
//
// Canonical order is produced adaptively. Below the scan threshold one pass
// pairs every queue entry with its Info's id, and the pairs are ordered on
// the ids alone (sortKeys: a radix sort over the bytes the largest id uses,
// a comparison sort for a short queue, nothing when marks arrived in
// ascending order), so sorting never chases a pointer. When a large
// fraction of a dense-id graph is dirty, the set is instead collected by a
// single in-order scan of the dense view — O(live), cheaper there than
// sorting, and irrelevant to the O(dirty) steady state the threshold
// excludes. The scan runs only while no Track has registered an
// Info that already claimed queue membership (unadopted — a by-value copy
// would pass for the entry it was copied from), and trusts its result only
// when the collected count equals the tracker's live-entry count
// (liveQueued — proves no marked object was missed), both without touching
// the queue; anything else diverts to the precise per-entry path below,
// which alone decides degradation.
func (t *Tracker) Take() []Checkpointable {
	if t.fresh > 0 {
		t.degraded = true
	}
	t.taken = t.taken[:0]
	if t.scanReady() {
		if t.scanQueue() {
			return t.taken
		}
		t.taken = t.taken[:0]
	}
	t.sortKeys()
	for _, k := range t.keys {
		info := k.info
		if !info.Modified() {
			continue
		}
		o := t.resolveObj(k.id)
		if o == nil || o.CheckpointInfo() != info {
			t.degraded = true
			continue
		}
		// The queue can hold the same Info twice — marked, retired by
		// ResetModified, marked again — which sorts adjacent; emit once.
		if n := len(t.taken); n > 0 && t.taken[n-1] == o {
			continue
		}
		t.taken = append(t.taken, o)
	}
	t.finishTake()
	return t.taken
}

// keyed is one mark-queue entry paired with its Info's id, the unit sortKeys
// orders.
type keyed struct {
	id   uint64
	info *Info
}

// radixMin is the queue length from which sortKeys radix-sorts: below it a
// comparison sort on the ids beats clearing and prefix-summing 256 counters
// per digit.
const radixMin = 32

// sortKeys fills keys with the mark-queue's entries and their ids, in one
// pass that loads each Info once, and orders keys by id: not at all when
// marks arrived in ascending order, by a comparison sort on the ids below
// radixMin entries, and otherwise by a least-significant-digit radix sort
// over the bytes the largest id uses, skipping a byte every id shares. The
// passes ping-pong between keys and sortBuf, which trade places after an odd
// number of them, so a steady-state sort allocates nothing.
func (t *Tracker) sortKeys() {
	keys := slices.Grow(t.keys[:0], len(t.queue))
	var all uint64
	sorted := true
	for _, info := range t.queue {
		id := info.ID()
		if n := len(keys); n > 0 && id < keys[n-1].id {
			sorted = false
		}
		all |= id
		keys = append(keys, keyed{id, info})
	}
	t.keys = keys
	if sorted {
		return
	}
	if len(keys) < radixMin {
		slices.SortFunc(keys, func(a, b keyed) int { return cmp.Compare(a.id, b.id) })
		return
	}
	src, dst := keys, slices.Grow(t.sortBuf[:0], len(keys))[:len(keys)]
	for shift := uint(0); shift < 64 && all>>shift != 0; shift += 8 {
		var count [256]int
		for _, k := range src {
			count[byte(k.id>>shift)]++
		}
		if count[byte(src[0].id>>shift)] == len(src) {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := byte(k.id >> shift)
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	t.keys, t.sortBuf = src, dst[:0]
}

// scanQueue collects the dirty set in ascending id order straight off the
// dense view: one pass taking every live Info (clearing its queued bit as it
// goes), then an O(1) verification that the collected count equals the
// tracker's live-entry count. A match proves the scan took exactly the
// queue's live entries — every live entry is counted at enqueue and retired
// by ResetModified, the view holds no Info Track registered while it claimed
// queue membership (scanReady), and an Info overwritten in place by another
// object's is rejected by its id — so the queue is dropped without ever being
// swept. On a mismatch it returns false with taken possibly half-built and
// the queue intact for the precise fallback.
func (t *Tracker) scanQueue() bool {
	for i, info := range t.denseInfos {
		if info.liveAt(t, i) {
			info.flags &^= queuedBit
			t.taken = append(t.taken, t.denseObjs[i])
		}
	}
	if int64(len(t.taken)) != t.liveQueued.Load() {
		return false
	}
	t.liveQueued.Store(0)
	t.queue = t.queue[:0]
	return true
}

// drainScan is the fused form of Take for the virtual-dispatch dirty fold:
// it walks the dense view once and records every hit into em on the spot —
// while the Info's cache line is still hot from the dirty-bit test — instead
// of materializing the taken slice for a second pass. Each hit is a genuine
// registered object (scanReady, liveAt) with its modified flag set, so emitting
// it is sound unconditionally: over-capture is merely conservative, and the
// closing count check catches under-capture — on a mismatch drainScan
// returns false with the queue intact, and the caller recovers the missed
// entries through Take, whose precise path skips the already-recorded
// (now clean) objects. It reports true when the scan provably covered every
// live entry. Callers must check that the scan path applies (dense view
// present, queue past the density threshold) before calling.
func (t *Tracker) drainScan(em *Emitter) bool {
	if t.fresh > 0 {
		t.degraded = true
	}
	emitted := int64(0)
	for i, info := range t.denseInfos {
		if info.liveAt(t, i) {
			info.flags &^= queuedBit
			em.Visit()
			em.EmitIfModified(t.denseObjs[i])
			emitted++
		}
	}
	if emitted != t.liveQueued.Load() {
		return false
	}
	t.liveQueued.Store(0)
	t.queue = t.queue[:0]
	return true
}

// scanReady reports whether Take would collect the dirty set by the dense
// in-order scan: a dense view is cached, every Info in it is trusted (see
// unadopted), and the queue is past the density threshold (below it, sorting
// the small queue is cheaper than visiting every slot).
func (t *Tracker) scanReady() bool {
	return !t.unadopted && t.denseInfos != nil && len(t.queue)*16 >= len(t.view.objs)
}

// liveAt reports whether i, found at slot id of t's dense view, is a live
// mark-queue entry of t: queued, modified, and still carrying that id.
func (i *Info) liveAt(t *Tracker, id int) bool {
	return i != nil && i.flags&^(skipMask|freshBit) == queuedBit|modifiedBit && i.ID() == uint64(id) && i.tracker == t
}

// finishTake clears the queued bits through the captured pointers and empties
// the queue, after the dirty set has been collected.
func (t *Tracker) finishTake() {
	for _, info := range t.queue {
		info.flags &^= queuedBit
	}
	t.queue = t.queue[:0]
	t.liveQueued.Store(0)
}

// resolveObj resolves a registered id to its object: through the dense cache
// when it covers the id, through the view map otherwise (the cache mirrors
// the view exactly, so an id past an active cache misses both).
func (t *Tracker) resolveObj(id uint64) Checkpointable {
	if id < uint64(len(t.denseObjs)) {
		return t.denseObjs[id]
	}
	return t.view.objs[id]
}

// Requeue re-enqueues every object in objs whose modified flag is still set
// — the recovery path when a dirty fold fails after Take drained the queue.
// Objects the failed fold already recorded have clear flags and are skipped
// here; they are covered by the epoch's clear-set instead (Session.Abort
// re-marks them through Mark, which re-enqueues). Both paths are idempotent,
// so Requeue and Abort compose in either order.
func (t *Tracker) Requeue(objs []Checkpointable) {
	for _, o := range objs {
		info := o.CheckpointInfo()
		if info.Modified() {
			info.Mark()
		}
	}
}

// NextMode returns the mode the next checkpoint must use: want, upgraded to
// Full while the tracker is degraded. Unlike Session.NextMode the
// degradation does not clear on commit — only Watch, which rebuilds the
// view, clears it.
func (t *Tracker) NextMode(want Mode) Mode {
	if t.degraded && want != Full {
		return Full
	}
	return want
}

// Degraded reports whether the dirty set may be incomplete, so that only a
// Full traversal checkpoint (followed by Watch) restores the O(dirty)
// invariant.
func (t *Tracker) Degraded() bool { return t.degraded }

// Dirty returns the number of mark-queue entries awaiting the next Take.
// Stale entries (flag since cleared) are counted until Take drops them.
func (t *Tracker) Dirty() int { return len(t.queue) }

// Resolve returns the Info of the registered object with the given id, or
// nil. Its signature matches InfoResolver, so a tracker doubles as a
// session's resolver: ckpt.NewSession(ckpt.WithInfoResolver(t.Resolve)).
func (t *Tracker) Resolve(id uint64) *Info { return t.view.Resolve(id) }

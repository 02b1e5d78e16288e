// Package parfold folds the registered object graph on a pool of workers and
// merges the result into a checkpoint body byte-identical to the sequential
// fold.
//
// An engine is one routine, a FoldFunc: the generic (*ckpt.Writer).Checkpoint,
// (*reflectckpt.Engine).Checkpoint, a compiled (*spec.Plan).Fold, or a
// generated specialized routine behind FoldEmitter. Looped over the roots by
// one goroutine it is the sequential checkpoint; handed to New it is shared,
// as is, by every fold worker — the driver never changes with the engine.
//
// parfold partitions the roots into deterministic shards (stable assignment
// by checkpoint id), folds the shards concurrently into per-worker
// wire.Encoder buffers — each worker an ordinary ckpt.Writer starting an
// ordinary body under the merged epoch — and concatenates the per-root chunks
// in canonical id order behind the header one worker wrote.
// Because each root's subtree encoding is independent of every other root's
// — a record's bytes depend only on its object — the merged body reproduces,
// byte for byte, what a sequential fold over the id-sorted roots would have
// written. Shard and worker counts influence scheduling only, never bytes.
//
// A Folder has three entry points over one internal fold: Fold (roots, the
// engine's routine), FoldTo (Fold into a sink) and FoldDirty (a tracker's
// dirty set, a ckpt.EmitOne). Each advances the epoch by one, failed folds
// included.
//
// The folder adds no epoch lifecycle of its own. With one effective worker
// the fold is the sequential ckpt.Writer, encoding straight into the output;
// the sharded fold's workers are detached writers (they clear flags and stage
// shadows but settle nothing), and the folder settles the merged epoch once
// through ckpt.Settle. The commit/abort authority is always a ckpt.Session:
// the caller's (WithSession), or a private one under which a body counts as
// durable once the next fold starts.
//
// The fold is subject to the parallel memory-model contract documented in
// package ckpt: mutators quiescent, roots with disjoint subtrees. The
// internal/difftest harness replays recorded mutation traces through every
// engine sequentially and in parallel to prove the equivalence holds on the
// repo's workloads.
package parfold

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ickpt/ckpt"
	"ickpt/ckpt/internal/hook"
	"ickpt/wire"
)

// FoldFunc is an engine's traversal routine: it folds the subtree rooted at
// root into w, recording objects according to w's mode. The four engines are
// four values of this type — (*ckpt.Writer).Checkpoint (the paper's generic
// driver), (*reflectckpt.Engine).Checkpoint, (*spec.Plan).Fold, and
// FoldEmitter over a generated routine — and the driver is the same for all
// of them.
//
// A Folder calls its one FoldFunc from several workers at once, each with its
// own writer and a root no other worker holds; any state the routine keeps
// beyond its arguments must be safe for that (the same contract FoldDirty's
// emit has).
type FoldFunc func(w *ckpt.Writer, root ckpt.Checkpointable) error

// FoldEmitter adapts a generated specialized checkpoint routine — a function
// from root object to emitter calls, as produced by cmd/ckptgen — into a
// FoldFunc. The routine must tolerate the writer's mode the caller folds in
// (generated routines are incremental-only).
func FoldEmitter(fn func(ckpt.Checkpointable, *ckpt.Emitter)) FoldFunc {
	return func(w *ckpt.Writer, root ckpt.Checkpointable) error {
		fn(root, w.Emitter())
		return nil
	}
}

// Sink accepts merged checkpoint bodies through a zero-copy handoff
// (DESIGN.md decision 11); *stablelog.AsyncWriter satisfies it, so a
// parallel fold can land its batch on the group-commit path and overlap the
// encoding of the next checkpoint with the fsync of this one. Reserve hands
// out a sink-owned encoder, Submit transfers it — and the body encoded into
// it — back without copying a byte, and Recycle returns an unused
// reservation to the sink's free list when the fold that was encoding into
// it aborts, so a failed epoch never leaks the buffer. FoldTo routes the
// canonical merge straight into the reserved buffer: the per-worker shard
// chunks are concatenated into sink-owned storage (one copy total), and on
// the single-worker inline path the records are encoded into it directly (no
// copy at all).
type Sink interface {
	Reserve() *wire.Encoder
	Submit(mode ckpt.Mode, epoch uint64, enc *wire.Encoder) error
	Recycle(enc *wire.Encoder)
}

// Option configures a Folder.
type Option interface {
	apply(*Folder)
}

type optionFunc func(*Folder)

func (f optionFunc) apply(fo *Folder) { f(fo) }

// WithWorkers sets the number of fold goroutines. n <= 0 (the default) means
// runtime.GOMAXPROCS(0). Worker count never affects the merged bytes.
func WithWorkers(n int) Option {
	return optionFunc(func(fo *Folder) { fo.workers = n })
}

// WithShards sets the number of shards the roots are partitioned into; a
// shard is the unit of work a worker claims. n <= 0 (the default) means
// 4x the worker count, enough slack for shards of uneven weight to balance.
// A root with checkpoint id i always lands in shard i mod n — stable across
// runs — and shard count never affects the merged bytes.
func WithShards(n int) Option {
	return optionFunc(func(fo *Folder) { fo.shards = n })
}

// WithSession attaches a commit/abort session to the folder: each fold's
// merged clear-set (the modified flags the epoch's records cleared, gathered
// across all workers) is handed to s when the fold completes, pending until
// s.Commit or s.Abort; a failed fold aborts its epoch through s immediately,
// covering the shards that succeeded before the failure. Without the option
// the folder resolves epochs through a private session: a failed fold or
// FoldTo sink still aborts (re-marking the cleared flags), and a body that
// survives to the start of the next fold (or to Release) commits — which
// cannot protect bodies handed to an asynchronous sink; pair a session of
// your own with stablelog.WithAck(s.Ack) for that. See ckpt.Session.
func WithSession(s *ckpt.Session) Option {
	return optionFunc(func(fo *Folder) { fo.session = s })
}

// WithShadowCache enables sub-object delta records across the fold (see
// ckpt.WithDeltaEncoding): every worker writer shares c, so an object's
// payload is diffed against its previous epoch's shadow no matter which
// worker encodes it, and merged bodies stay byte-identical to a sequential
// delta-encoding fold. The workers' shadow updates settle as one epoch batch
// and resolve with the epoch, through the session. A nil cache leaves deltas
// off.
func WithShadowCache(c *ckpt.ShadowCache) Option {
	return optionFunc(func(fo *Folder) { fo.shadow = c })
}

// Folder is a reusable parallel fold driver. Like ckpt.Writer it keeps an
// epoch counter and recycles its buffers; unlike the writer it may be handed
// roots in any order — chunks are merged in canonical (ascending id) order
// regardless.
//
// A Folder must not be used from multiple goroutines at once; it owns the
// goroutines it spawns.
type Folder struct {
	fold    FoldFunc
	workers int
	shards  int

	// session is every epoch's commit/abort authority. ownSession marks the
	// private one of a folder built without WithSession: nobody outside can
	// resolve its epochs, so the previous fold's body counts as durable once
	// the next fold starts (see run).
	session    *ckpt.Session
	ownSession bool

	// shadow, when non-nil, is the delta shadow cache every writer of the
	// folder diffs against.
	shadow *ckpt.ShadowCache

	epoch uint64
	out   wire.Encoder

	// seq is the single-worker fold: the sequential writer, attached to the
	// session and the shadow cache, settling its own epochs. pool holds the
	// sharded fold's detached workers.
	seq  *ckpt.Writer
	pool []*worker

	// target, when non-nil, receives the next fold's body in place of the
	// folder's own merge buffer — FoldTo points it at a Sink's reserved
	// encoder so the merge lands in sink-owned storage.
	target *wire.Encoder
	// lastLen is the previous merged body's length, the pre-size hint for
	// the per-worker shard buffers (f.out.Len() is stale when the previous
	// fold merged into a target).
	lastLen int

	// spawned counts fold goroutines launched over the folder's lifetime;
	// the degraded-to-sequential path (one effective worker, or
	// GOMAXPROCS=1) runs inline and leaves it untouched.
	spawned int
}

// worker is one shard goroutine's state, cached across folds. Each worker
// encodes into an encoder drawn from the wire pool (wire.GetEncoder), so
// short-lived folders reuse grown shard buffers; Release returns them.
type worker struct {
	enc    *wire.Encoder
	wr     *ckpt.Writer
	spans  []span
	hdrLen int // length of the body header the worker's StartAt wrote
	clears []ckpt.ClearEntry
	stages []ckpt.ShadowStage
	err    error
}

// span locates one root's chunk inside a worker's body.
type span struct {
	pos        int // position of the item in the canonical sequence
	start, end int // byte range in the worker's body
}

// New returns a Folder driving fold, the one routine every worker shares (see
// FoldFunc for what that asks of it).
func New(fold FoldFunc, opts ...Option) *Folder {
	f := &Folder{fold: fold}
	for _, o := range opts {
		o.apply(f)
	}
	if f.session == nil {
		f.session, f.ownSession = ckpt.NewSession(), true
	}
	return f
}

// NewGeneric returns a Folder driving the generic virtual-dispatch fold, the
// paper's Checkpoint driver.
func NewGeneric(opts ...Option) *Folder {
	return New((*ckpt.Writer).Checkpoint, opts...)
}

// Fold takes one checkpoint of roots in the given mode, advancing the
// folder's epoch (the first fold has epoch 1, like ckpt.Writer.Start; a fold
// that fails consumes its epoch too). The returned body aliases the folder's
// buffer and is invalidated by the next fold; copy it if it must outlive the
// folder's reuse.
func (f *Folder) Fold(mode ckpt.Mode, roots []ckpt.Checkpointable) ([]byte, ckpt.Stats, error) {
	// The sharded fold's writers are detached from the session, so the
	// re-marks an Ack parked on it are applied here, before any flag is read.
	hook.RemarkParked(f.session)
	// Canonical order: ascending checkpoint id. The sequential reference is
	// a fold over the roots in this order. Roots that arrive already sorted
	// (ckpt.SortRoots, registration order) skip the copy and the sort — on
	// the inline path that keeps the fold free of per-epoch O(n log n)
	// overhead the sequential driver doesn't pay.
	for i := 1; i < len(roots); i++ {
		if roots[i-1].CheckpointInfo().ID() > roots[i].CheckpointInfo().ID() {
			roots = append([]ckpt.Checkpointable(nil), roots...)
			ckpt.SortRoots(roots)
			break
		}
	}
	return f.run(mode, roots, f.fold)
}

// FoldTo folds into an encoder reserved from sink and submits it — typically
// to a stablelog.AsyncWriter, whose Submit returns as soon as the body is
// queued, so the next fold's encoding overlaps this body's write and
// group-commit fsync.
//
// A failed fold recycles the reservation. A sink.Submit error aborts the
// epoch through the session: the flags its records cleared are re-marked. A
// nil return from an asynchronous sink means only "queued" — attach a
// session and wire the sink's acknowledgements to it
// (stablelog.WithAck(s.Ack)) so the epoch commits on durable fsync and
// aborts on a failed or dropped write.
func (f *Folder) FoldTo(sink Sink, mode ckpt.Mode, roots []ckpt.Checkpointable) (ckpt.Stats, error) {
	enc := sink.Reserve()
	f.target = enc
	_, stats, err := f.Fold(mode, roots)
	f.target = nil
	if err != nil {
		// The fold aborted (and re-marked) already; the reservation must go
		// back to the sink's free list or the buffer leaks.
		sink.Recycle(enc)
		return stats, err
	}
	if err := sink.Submit(mode, f.epoch, enc); err != nil {
		// Submit reclaims the buffer on its own error path; only the epoch
		// needs aborting here.
		f.session.Abort(f.epoch)
		return stats, err
	}
	return stats, nil
}

// FoldDirty takes one O(dirty) incremental checkpoint: it drains t's
// mark-queue (ckpt.Tracker.Take) and encodes the dirty set — no traversal —
// sharding it by id like Fold shards roots and merging in the same canonical
// ascending-id order, so the merged body is byte-identical to a sequential
// ckpt.Writer.CheckpointDirty over the same tracker with the same emit. The
// folder's epoch advances as in Fold. emit, like the folder's FoldFunc, is
// shared by all workers.
//
// Callers are expected to consult t.NextMode first and fall back to a
// traversal Fold in Full mode (plus Tracker.Watch) when the tracker has
// degraded. On failure the un-recorded dirty objects are re-enqueued and the
// epoch aborted, exactly like CheckpointDirty.
func (f *Folder) FoldDirty(t *ckpt.Tracker, emit ckpt.EmitOne) ([]byte, ckpt.Stats, error) {
	hook.RemarkParked(f.session) // before Take, so they join the dirty set
	objs := t.Take()             // canonical ascending-id order already
	body, stats, err := f.run(ckpt.Incremental, objs, func(w *ckpt.Writer, o ckpt.Checkpointable) error {
		em := w.Emitter()
		em.Visit()
		return emit(em, o)
	})
	if err != nil {
		// Re-enqueue the dirty objects the failed epoch never recorded; the
		// recorded ones are re-marked (and re-enqueued) by the abort that
		// the fold already performed. Both are idempotent.
		t.Requeue(objs)
	}
	return body, stats, err
}

// run is the one fold: it opens the next epoch and applies step to every item
// of the canonical (ascending-id) sequence, inline or sharded. Roots with the
// engine's traversal routine and a dirty set with visit-and-emit both reduce
// to it.
//
// Under the folder's private session the previous fold's body survived to
// this point with nobody to say otherwise, so it is resolved as durable first
// — retiring its clear-set to the pool the coming fold's emitters draw from,
// and committing its staged shadows. (No-op when that epoch already aborted.)
func (f *Folder) run(mode ckpt.Mode, items []ckpt.Checkpointable, step FoldFunc) ([]byte, ckpt.Stats, error) {
	if f.ownSession {
		f.session.Commit(f.epoch)
	}
	f.epoch++
	nw, ns := f.geometry()
	if nw == 1 {
		return f.foldInline(mode, items, step)
	}
	return f.foldShards(mode, nw, ns, items, step)
}

// geometry resolves the effective worker and shard counts. The fold degrades
// to one inline worker — no goroutines — when the configuration yields a
// single effective worker or the process has GOMAXPROCS=1, where a goroutine
// pool only adds scheduling overhead on top of the sequential fold.
func (f *Folder) geometry() (nw, ns int) {
	nw = f.workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	ns = f.shards
	if ns <= 0 {
		ns = 4 * nw
	}
	if nw > ns {
		nw = ns
	}
	if runtime.GOMAXPROCS(0) == 1 {
		nw = 1
	}
	return nw, ns
}

// outFor returns the encoder the current fold's merged body lands in: the
// FoldTo-reserved sink encoder when one is pending, the folder's own merge
// buffer otherwise.
func (f *Folder) outFor() *wire.Encoder {
	if f.target != nil {
		return f.target
	}
	return &f.out
}

// ensureWorkers grows the cached pool of detached shard workers to at least n
// entries. A detached worker diffs against the shared shadow cache through
// its emitter but owns neither the cache nor the session: the folder takes
// what its records cleared and staged, and settles the merged epoch itself.
func (f *Folder) ensureWorkers(n int) {
	for len(f.pool) < n {
		enc := wire.GetEncoder()
		wr := ckpt.NewWriter()
		wr.SwapEncoder(enc)
		wr.Emitter().SetShadow(f.shadow)
		f.pool = append(f.pool, &worker{enc: enc, wr: wr})
	}
}

// foldInline is the single-worker fold, and it is the sequential writer: a
// ckpt.Writer attached to the folder's session and shadow cache encodes the
// canonical item sequence directly into the output encoder — the same bytes
// as the sharded merge, without per-worker buffers, goroutines, or a merge
// copy — and settles the epoch itself in Finish (or Discard, when a step
// fails outside Writer.Checkpoint).
func (f *Folder) foldInline(mode ckpt.Mode, items []ckpt.Checkpointable, step FoldFunc) ([]byte, ckpt.Stats, error) {
	if f.seq == nil {
		f.seq = ckpt.NewWriter(ckpt.WithSession(f.session), ckpt.WithShadowCache(f.shadow))
	}
	wr := f.seq
	wr.SwapEncoder(f.outFor())
	wr.StartAt(mode, f.epoch)
	for _, it := range items {
		if err := step(wr, it); err != nil {
			wr.Discard()
			return nil, ckpt.Stats{}, err
		}
	}
	body, stats, err := wr.Finish()
	if err != nil {
		return nil, ckpt.Stats{}, err
	}
	f.lastLen = len(body)
	return body, stats, nil
}

// foldShards is the sharded fold: assign items to shards, let nw workers claim
// shards and apply step to each shard's items (recording spans), merge the
// per-item chunks in item order behind one body header, and settle the merged
// epoch.
func (f *Folder) foldShards(mode ckpt.Mode, nw, ns int, items []ckpt.Checkpointable, step FoldFunc) ([]byte, ckpt.Stats, error) {
	epoch := f.epoch
	f.ensureWorkers(nw)
	// Pre-size the shard buffers from the previous merged body: an even split
	// is the steady-state expectation, and growing up front turns the first
	// epochs' incremental reallocations into one.
	if hint := f.lastLen / nw; hint > 0 {
		for _, w := range f.pool[:nw] {
			w.enc.Grow(hint)
		}
	}

	// Stable shard assignment: item id mod shard count, item order preserved
	// within a shard. A worker's body is a contiguous run of chunks only when
	// ns == 1; in general the chunk table, indexed by item position, re-orders.
	shardItems := make([][]int, ns)
	for p, it := range items {
		s := int(it.CheckpointInfo().ID() % uint64(ns))
		shardItems[s] = append(shardItems[s], p)
	}
	chunks := make([][]byte, len(items))
	errs := make([]error, ns)
	var next atomic.Int64
	var failed atomic.Bool
	work := func(w *worker) {
		w.spans = w.spans[:0]
		w.err = nil
		w.wr.StartAt(mode, epoch)
		w.hdrLen = w.wr.BodyLen()
		// Claim loop: once any shard has failed the epoch is doomed — its
		// body will be discarded — so stop claiming new shards rather than
		// burning CPU encoding records nobody will merge.
		for !failed.Load() {
			s := int(next.Add(1)) - 1
			if s >= ns {
				break
			}
			for _, p := range shardItems[s] {
				start := w.wr.BodyLen()
				if err := step(w.wr, items[p]); err != nil {
					errs[s] = err
					failed.Store(true)
					break
				}
				w.spans = append(w.spans, span{pos: p, start: start, end: w.wr.BodyLen()})
			}
		}
		// The worker is detached: take what its records cleared and staged
		// before Finish, which then has nothing to settle. The folder settles
		// the whole epoch, as one batch, at merge time.
		w.clears = w.wr.Emitter().TakeClears()
		w.stages = w.wr.Emitter().TakeShadowStages()
		body, _, err := w.wr.Finish()
		if err != nil {
			w.err = err
			return
		}
		for _, sp := range w.spans {
			chunks[sp.pos] = body[sp.start:sp.end]
		}
	}
	var wg sync.WaitGroup
	for _, w := range f.pool[:nw] {
		wg.Add(1)
		f.spawned++
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()

	// Gather the epoch: the session merges the clear-sets observed under one
	// epoch (retiring the merged-in arrays to the pool the next fold's
	// emitters draw from), so on failure the whole epoch — including shards
	// that folded cleanly — is re-marked, as the merged body is discarded as
	// a unit.
	var stages []ckpt.ShadowStage
	for _, w := range f.pool[:nw] {
		f.session.Observe(epoch, mode, w.clears)
		w.clears = nil
		stages = append(stages, w.stages...)
		w.stages = nil
	}

	// Error selection prefers the failure in the lowest shard among those
	// attempted. (Early stopping means later shards may never run, so which
	// failure is reported can vary with scheduling; that a failure is
	// reported — and the epoch aborted — is deterministic.)
	var foldErr error
	for _, err := range errs {
		if err != nil {
			foldErr = err
			break
		}
	}
	if foldErr == nil {
		for _, w := range f.pool[:nw] {
			if w.err != nil {
				foldErr = w.err
				break
			}
		}
	}
	ckpt.Settle(f.session, f.shadow, epoch, mode, nil, stages, foldErr != nil)
	if foldErr != nil {
		return nil, ckpt.Stats{}, foldErr
	}

	// Every worker started an ordinary body under the merged mode and epoch,
	// so each one's prefix is the merged body's header — whatever its format.
	out := f.outFor()
	out.Reset()
	w0 := f.pool[0]
	out.Raw(w0.enc.Bytes()[:w0.hdrLen])
	var stats ckpt.Stats
	for _, w := range f.pool[:nw] {
		st := w.wr.Emitter().Stats()
		st.Bytes = 0
		stats.Add(st)
	}
	// Items are in canonical order, so the chunk table already is.
	for _, c := range chunks {
		out.Raw(c)
	}
	stats.Bytes = out.Len()
	f.lastLen = out.Len()
	return out.Bytes(), stats, nil
}

// Release returns the folder's pooled per-worker encoders to the wire pool
// and drops the worker pool; a later fold rebuilds it. Call it when the
// folder is done — after copying or persisting the last merged body, which
// remains valid (it lives in the folder's own merge buffer, not in a worker
// encoder).
func (f *Folder) Release() {
	if f.ownSession {
		f.session.Commit(f.epoch)
	}
	for _, w := range f.pool {
		wire.PutEncoder(w.enc)
	}
	f.pool = nil
}

// Epoch returns the epoch of the last fold (0 before the first).
func (f *Folder) Epoch() uint64 { return f.epoch }

// Spawned returns the number of fold goroutines launched over the folder's
// lifetime: zero while every fold ran inline, so tests that mean to exercise
// the sharded path can assert they did.
func (f *Folder) Spawned() int { return f.spawned }

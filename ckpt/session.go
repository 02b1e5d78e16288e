package ckpt

import (
	"sync"
	"sync/atomic"

	"ickpt/ckpt/internal/hook"
)

func init() {
	hook.RemarkParked = func(s any) { s.(*Session).remarkParked() }
}

// This file implements the epoch commit/abort protocol that makes
// incremental checkpoints abort-safe.
//
// The incremental protocol clears an object's modified flag as the object is
// *encoded* (Emitter.Begin), on the assumption that the encoded body reaches
// stable storage. When it does not — a fold error mid-traversal, a sink
// failure, an asynchronous write dropped after a sticky log error — the
// cleared flags are a lost update: every later incremental checkpoint skips
// the objects, and recovery silently rebuilds a stale graph. The fix is a
// two-phase discipline: the emitter records every flag it clears into a
// per-epoch clear-set, and the epoch is either committed (the body is
// durable; drop the set) or aborted (re-mark every object in the set, so the
// next incremental checkpoint recaptures the lost state).

// ClearEntry records one modified flag cleared while encoding an epoch: the
// object's id and its Info at the time of the clear.
type ClearEntry struct {
	ID   uint64
	Info *Info
}

// remark sets the modified flag of every object in clears — through Mark, so
// objects registered with a Tracker are re-enqueued into its mark-queue and
// an aborted epoch's dirty set is recaptured by the next dirty fold. Each
// entry resolves through r when r is set, and through its captured Info
// otherwise. It reports how many entries it re-marked and how many resolved
// to nil. Settle uses it when an epoch fails with no session attached.
func remark(clears []ClearEntry, r InfoResolver) (marked, unresolved int) {
	for _, c := range clears {
		info := c.Info
		if r != nil {
			info = r(c.ID)
		}
		if info == nil {
			unresolved++
			continue
		}
		info.Mark()
		marked++
	}
	return marked, unresolved
}

// Clear-set recycling. Every epoch allocates a clear-set in Emitter.Begin
// and retires it at Commit/Abort; pooling the backing arrays (and the
// per-epoch box) makes the steady-state incremental loop allocation-free. A
// typed free list is used instead of sync.Pool because pooling a slice in
// sync.Pool boxes the slice header on every Put — an allocation on the very
// path being de-allocated.
var clearsPool struct {
	mu   sync.Mutex
	free [][]ClearEntry
	ecs  []*epochClears
}

// getClears returns an empty clear-set, reusing a retired backing array when
// one is available.
func getClears() []ClearEntry {
	clearsPool.mu.Lock()
	defer clearsPool.mu.Unlock()
	if n := len(clearsPool.free); n > 0 {
		c := clearsPool.free[n-1]
		clearsPool.free[n-1] = nil
		clearsPool.free = clearsPool.free[:n-1]
		return c
	}
	return nil
}

// putClears retires a clear-set's backing array for reuse. The entries must
// be dead — the epoch committed, or the set was re-marked — and are zeroed,
// so a pooled array never keeps a retired object graph reachable. Safe on nil
// and on slices that did not come from the pool.
func putClears(c []ClearEntry) {
	if cap(c) == 0 {
		return
	}
	clear(c)
	c = c[:0]
	clearsPool.mu.Lock()
	clearsPool.free = append(clearsPool.free, c)
	clearsPool.mu.Unlock()
}

func getEpochClears(mode Mode, clears []ClearEntry) *epochClears {
	clearsPool.mu.Lock()
	defer clearsPool.mu.Unlock()
	if n := len(clearsPool.ecs); n > 0 {
		ec := clearsPool.ecs[n-1]
		clearsPool.ecs[n-1] = nil
		clearsPool.ecs = clearsPool.ecs[:n-1]
		ec.mode, ec.clears = mode, clears
		return ec
	}
	return &epochClears{mode: mode, clears: clears}
}

func putEpochClears(ec *epochClears) {
	putClears(ec.clears)
	ec.clears = nil
	ec.shadow = nil
	ec.epoch = 0
	clearsPool.mu.Lock()
	clearsPool.ecs = append(clearsPool.ecs, ec)
	clearsPool.mu.Unlock()
}

// Settle is the one place an epoch's fold ends: it takes the clear-set and
// staged shadow payloads a finished or failed fold left behind and hands
// them to the epoch's authority. Every driver — Writer.Finish and
// Writer.Discard, parfold's merged sharded epoch — goes through it.
//
//   - failed: the body is discarded, so the shadow heads its records advanced
//     match nothing published (stale them) and every cleared flag is a lost
//     update: the session observes and aborts the epoch, or without one the
//     flags are re-marked directly.
//   - finished, with a session: the stages are published to the cache, the
//     session observes the clear-set, and both stay in flight until
//     Session.Commit or Session.Abort resolves them in lockstep.
//   - finished, sessionless: there is no later authority, so the body counts
//     as durable the moment it is handed to the caller — the clear-set is
//     retired and the epoch's shadows commit at once. A Full epoch therefore
//     always prunes the cache, whether or not it staged anything.
//
// s and c may each be nil (no session; delta encoding off). clears is
// consumed; stages is only read (Emitter.TakeShadowStages lends it).
func Settle(s *Session, c *ShadowCache, epoch uint64, mode Mode, clears []ClearEntry, stages []ShadowStage, failed bool) {
	if failed {
		if c != nil {
			c.discard(stages)
		}
		if s != nil {
			// Observe+Abort even when no flag was cleared: the session's abort
			// count tracks failed epochs, not just non-empty clear-sets.
			s.Observe(epoch, mode, clears)
			s.Abort(epoch)
		} else {
			remark(clears, nil)
			putClears(clears)
		}
		return
	}
	if c != nil {
		c.stage(epoch, stages)
	}
	if s != nil {
		s.Observe(epoch, mode, clears)
		s.attachShadow(epoch, c)
	} else {
		putClears(clears)
		if c != nil {
			c.commitEpoch(epoch, mode)
		}
	}
}

// InfoResolver maps an object id to its current Info, or nil when the id no
// longer resolves (the object was freed or detached since the epoch was
// encoded). RootIndex.Resolve is the standard implementation.
type InfoResolver func(id uint64) *Info

// SessionStats counts protocol events over a session's lifetime.
type SessionStats struct {
	// Epochs counts epochs observed (clear-sets registered).
	Epochs int
	// Commits and Aborts count resolved epochs.
	Commits int
	Aborts  int
	// Remarked counts modified flags re-set by aborts. An aborting Ack
	// parks its entries, so they count when the next epoch's start (or
	// NextMode) re-marks them, not at the Ack.
	Remarked int
	// Unresolved counts clear-set entries no resolver could cover; each one
	// degrades the session to a forced Full checkpoint. Like Remarked, a
	// parked entry counts when it is applied.
	Unresolved int
	// ForcedFull counts NextMode calls that upgraded a requested
	// Incremental checkpoint to Full because the session was degraded.
	ForcedFull int
	// LateAcks counts nil acknowledgements for epochs the session had
	// already aborted because an earlier epoch was lost. Each commits
	// nothing and degrades the session.
	LateAcks int
}

// Session tracks the clear-sets of in-flight checkpoint epochs and resolves
// each epoch with Commit or Abort. It spans every engine: the generic
// Writer, reflectckpt, compiled spec plans, and generated routines all clear
// flags through Emitter.Begin, so one session protects them all, sequential
// or parallel (attach with WithSession on the Writer or parfold.WithSession
// on the Folder).
//
// The intended loop:
//
//	s := ckpt.NewSession()
//	w := ckpt.NewWriter(ckpt.WithSession(s))
//	...
//	w.Start(s.NextMode(ckpt.Incremental))
//	... fold ...
//	body, _, err := w.Finish()        // error: epoch already aborted
//	if err == nil {
//		if persist(body) == nil {  // or an async ack: stablelog.WithAck(s.Ack)
//			s.Commit(w.Epoch())
//		} else {
//			s.Abort(w.Epoch())
//		}
//	}
//
// Session is safe for concurrent use: acknowledgements may arrive from a
// background writer goroutine while the application encodes the next epoch.
// One rule keeps that sound: Ack neither writes an Info nor calls the
// resolver. The objects' flags, their trackers' mark-queues and the views a
// resolver reads belong to the application's goroutine, which marks and
// adopts objects on every write, so an aborting Ack parks its clear-set
// entries on the session unresolved, and the application's goroutine
// resolves and re-marks them as the next epoch starts: Writer.StartAt with
// the session attached, parfold's Fold and FoldDirty before they read a flag
// or take a tracker's dirty set, and NextMode before it chooses the mode.
// While nothing is parked that costs one atomic load. Abort and AbortAll,
// which the application calls on its own goroutine, re-mark in place.
type Session struct {
	mu       sync.Mutex
	resolver InfoResolver
	pending  map[uint64]*epochClears
	lost     map[uint64]bool // aborted with an earlier epoch, ack still due
	degraded bool
	stats    SessionStats

	// parked holds the clear-set entries an Ack aborted, not yet resolved
	// or re-marked; hasParked lets the next epoch's start skip the lock
	// while it is empty.
	parked    []ClearEntry
	hasParked atomic.Bool
}

// epochClears is one in-flight epoch's clear-set, plus the delta shadow
// cache (if the writer has delta encoding enabled) whose staged payloads
// resolve in lockstep with it.
type epochClears struct {
	epoch  uint64
	mode   Mode
	clears []ClearEntry
	shadow *ShadowCache
}

// SessionOption configures a Session.
type SessionOption interface {
	applySession(*Session)
}

type sessionOptionFunc func(*Session)

func (f sessionOptionFunc) applySession(s *Session) { f(s) }

// WithInfoResolver makes Abort resolve clear-set ids through r instead of
// the Info pointers captured at encode time. Use it when aborted objects may
// have been freed or replaced between the failed epoch and the abort: a
// captured pointer would re-mark the stale Info, while a resolver re-marks
// the object now reachable under that id — and reports (by returning nil)
// the ids it cannot cover, degrading the session to a forced Full
// checkpoint.
func WithInfoResolver(r InfoResolver) SessionOption {
	return sessionOptionFunc(func(s *Session) { s.resolver = r })
}

// NewSession returns an empty session.
func NewSession(opts ...SessionOption) *Session {
	s := &Session{pending: make(map[uint64]*epochClears)}
	for _, o := range opts {
		o.applySession(s)
	}
	return s
}

// Observe registers epoch's clear-set, leaving the epoch in-flight until
// Commit or Abort. Settle calls it when an epoch's body is complete (or when
// its fold has failed, immediately before aborting); applications using the
// Writer or Folder integration never call it directly.
//
// Observing an epoch that is already pending merges the clear-sets: a
// sharded fold observes each worker's set under the merged epoch, and a
// retake reuses an epoch number after a partial failure.
func (s *Session) Observe(epoch uint64, mode Mode, clears []ClearEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ec, ok := s.pending[epoch]; ok {
		ec.clears = append(ec.clears, clears...)
		putClears(clears)
		return
	}
	ec := getEpochClears(mode, clears)
	ec.epoch = epoch
	s.pending[epoch] = ec
	s.stats.Epochs++
}

// attachShadow ties a delta shadow cache to a pending epoch: the shadows the
// cache staged for that epoch resolve with it (commitEpoch, abortEpoch), in
// lockstep with the clear-set. Settle calls it right after Observe. If the
// epoch is not pending it has already resolved — as an abort, since no body
// was ever handed out — so the staged shadows are staled immediately. Once a
// shadow is attached, failure is sticky (see Abort).
func (s *Session) attachShadow(epoch uint64, c *ShadowCache) {
	if c == nil {
		return
	}
	s.mu.Lock()
	ec, ok := s.pending[epoch]
	if ok {
		ec.shadow = c
	}
	s.mu.Unlock()
	if !ok {
		c.abortEpoch(epoch)
	}
}

// Commit resolves epoch as durable: its clear-set is dropped, and a
// committed Full checkpoint clears the session's degraded state (everything
// live is recaptured by a full body, so nothing can be stale). It reports
// whether the epoch was pending. Committing an epoch Abort already took down
// with an earlier one commits nothing: the body may diff against a payload
// that never became durable, so the session degrades until a Full re-anchors
// the stream.
func (s *Session) Commit(epoch uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ec, ok := s.pending[epoch]
	if !ok {
		if s.lost[epoch] {
			delete(s.lost, epoch)
			s.stats.LateAcks++
			s.degraded = true
		}
		return false
	}
	delete(s.pending, epoch)
	s.stats.Commits++
	if ec.mode == Full {
		s.degraded = false
	}
	if ec.shadow != nil {
		ec.shadow.commitEpoch(ec.epoch, ec.mode)
	}
	putEpochClears(ec)
	return true
}

// Abort resolves epoch as lost: every object in its clear-set is re-marked
// so the next incremental checkpoint recaptures the state the discarded
// body carried. Entries are resolved through the session's InfoResolver
// when one is set; ids the resolver cannot cover are counted and degrade
// the session, so NextMode forces a Full checkpoint that recaptures
// everything live regardless. It returns the number of objects re-marked.
//
// When epoch has a shadow cache attached (the writer encodes deltas), every
// later pending epoch aborts with it: their bodies may carry deltas against
// epoch's payloads, and a delta whose base never became durable fails
// recovery with ErrDeltaBase. This asks one thing of the sink: failure must
// be sticky. Once it loses an epoch's body it must abort every later epoch in
// flight and never persist one of them; stablelog.AsyncWriter does so by
// construction, and a custom sink that can drop one body yet persist the next
// must call AbortAll on its first failure. A sink that persists one of those
// bodies anyway reports it through a nil ack, which Commit answers by forcing
// the next checkpoint to Full.
func (s *Session) Abort(epoch uint64) int { return s.abort(epoch, false) }

// abort is Abort; park defers the re-marks to the application's goroutine
// (see Ack).
func (s *Session) abort(epoch uint64, park bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ec, ok := s.pending[epoch]
	if !ok {
		delete(s.lost, epoch)
		return 0
	}
	delete(s.pending, epoch)
	sticky := ec.shadow != nil
	n := s.abortLocked(ec, park)
	if sticky {
		for e, later := range s.pending {
			if e > epoch {
				delete(s.pending, e)
				n += s.abortLocked(later, park)
				if s.lost == nil {
					s.lost = make(map[uint64]bool)
				}
				s.lost[e] = true
			}
		}
	}
	return n
}

// AbortAll aborts every pending epoch — the teardown path after a sticky
// sink error, where no per-epoch acknowledgement will ever arrive. It
// returns the total number of objects re-marked.
func (s *Session) AbortAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for epoch, ec := range s.pending {
		delete(s.pending, epoch)
		n += s.abortLocked(ec, false)
	}
	return n
}

// abortLocked re-marks one epoch's clear-set (see remark) and returns the
// number of objects re-marked; with park, the entries are parked unresolved
// for remarkParked instead, and it returns 0. Callers hold s.mu.
func (s *Session) abortLocked(ec *epochClears, park bool) int {
	s.stats.Aborts++
	if ec.shadow != nil {
		ec.shadow.abortEpoch(ec.epoch)
	}
	n := 0
	if park {
		if len(ec.clears) > 0 {
			s.parked = append(s.parked, ec.clears...)
			s.hasParked.Store(true)
		}
	} else {
		n = s.countRemarks(remark(ec.clears, s.resolver))
	}
	putEpochClears(ec)
	return n
}

// countRemarks adds one re-mark pass to the counters, degrading the session
// if an entry went unresolved, and returns marked. Callers hold s.mu.
func (s *Session) countRemarks(marked, unresolved int) int {
	s.stats.Remarked += marked
	s.stats.Unresolved += unresolved
	if unresolved > 0 {
		s.degraded = true
	}
	return marked
}

// remarkParked resolves and re-marks the entries Ack parked. It runs on the
// goroutine that starts the next epoch — the one that owns the objects, their
// trackers and the resolver's view — before the body begins or the mode is
// chosen; while nothing is parked it is one atomic load.
func (s *Session) remarkParked() {
	if s == nil || !s.hasParked.Load() {
		return
	}
	s.mu.Lock()
	parked := s.parked
	s.parked = nil
	s.hasParked.Store(false)
	s.mu.Unlock()
	marked, unresolved := remark(parked, s.resolver)
	s.mu.Lock()
	s.countRemarks(marked, unresolved)
	s.mu.Unlock()
}

// Ack resolves epoch from a persistence acknowledgement: Commit on nil,
// Abort otherwise. Its signature matches stablelog's per-append callback,
// so a session rides the group-commit path directly:
//
//	aw := stablelog.NewAsyncWriter(log, stablelog.WithSyncEvery(8),
//		stablelog.WithAck(s.Ack))
//
// Because that callback runs on the log's goroutine, an aborting Ack writes
// no Info and calls no resolver: it parks the epoch's entries (see Session),
// and the next epoch's start resolves and re-marks them on the application's
// goroutine, so the next epoch recaptures them.
func (s *Session) Ack(epoch uint64, err error) {
	if err == nil {
		s.Commit(epoch)
	} else {
		s.abort(epoch, true)
	}
}

// Degraded reports whether an abort left state no resolver could cover, or a
// late ack put a body with a lost delta base in the stream, so that only a
// Full checkpoint restores the incremental invariant.
func (s *Session) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// NextMode returns the mode the next checkpoint must use: want, upgraded to
// Full while the session is degraded. The degradation clears when a Full
// epoch commits. It first applies the re-marks an Ack parked, so an entry no
// resolver covers degrades the session before the mode is chosen; call it on
// the application's goroutine.
func (s *Session) NextMode(want Mode) Mode {
	s.remarkParked()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded && want != Full {
		s.stats.ForcedFull++
		return Full
	}
	return want
}

// Pending returns the number of in-flight epochs.
func (s *Session) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RootIndex is an id→object index over the object graphs reachable from a
// set of roots: the resolution machinery shared by abort-time re-marking
// (Resolve as an InfoResolver) and by the dirty index (a Tracker's view is a
// RootIndex, resolving mark-queue ids to the objects a dirty fold encodes).
// Build it with IndexRoots immediately before use so it reflects the current
// graph.
type RootIndex struct {
	objs map[uint64]Checkpointable
}

// IndexRoots traverses the graphs reachable from roots — through the same
// Fold methods a checkpoint uses, without recording anything or touching
// any modified flag — and returns the id→object index.
func IndexRoots(roots ...Checkpointable) (*RootIndex, error) {
	w := NewWriter()
	w.collect = make(map[uint64]Checkpointable)
	w.Start(Full)
	for _, r := range roots {
		if err := w.Checkpoint(r); err != nil {
			return nil, err
		}
	}
	idx := &RootIndex{objs: w.collect}
	w.collect = nil
	w.started = false
	return idx, nil
}

// Resolve returns the Info of the object currently reachable under id, or
// nil. Its signature matches InfoResolver.
func (x *RootIndex) Resolve(id uint64) *Info {
	if o, ok := x.objs[id]; ok {
		return o.CheckpointInfo()
	}
	return nil
}

// Len returns the number of indexed objects.
func (x *RootIndex) Len() int { return len(x.objs) }

// Each calls fn for every indexed object, in unspecified order.
func (x *RootIndex) Each(fn func(id uint64, o Checkpointable)) {
	for id, o := range x.objs {
		fn(id, o)
	}
}

package ckpt

import (
	"sync"
	"sync/atomic"

	"ickpt/wire"
)

// This file implements the shadow-payload cache behind sub-object delta
// encoding. The emitter diffs each large record payload against a shadow of
// the payload the same object carried in the last *committed* checkpoint and
// ships only the changed byte runs (wire.KindDelta); the cache is what makes
// that safe under the epoch commit/abort protocol:
//
//   - While an epoch is being encoded, the payloads it emits are staged as
//     pending shadows (Stage). The diff base for a record is the newest
//     pending shadow when one exists — an in-flight epoch's body precedes
//     this one in the stream, so the rebuilder will have materialized its
//     payload by the time this delta applies — falling back to the last
//     committed shadow.
//   - Session.Commit promotes the epoch's pending shadows to committed
//     (CommitEpoch); Session.Abort drops them (AbortEpoch) and marks the
//     touched entries stale, so an aborted epoch can never poison the base:
//     the next emit of the object ships a full payload and re-establishes
//     the shadow from bytes that actually reached the stream.
//   - An object emitted while its shadow update is suppressed (the churn
//     backoff below) also stales its entry: a base may only serve diffs if
//     it equals the object's latest payload in the durable stream, byte for
//     byte. The base hash embedded in every delta (wire.DeltaBaseHash) is
//     the recovery-time backstop should a driver violate the protocol.
//
// Fully-churned objects would otherwise pay a wasted comparison sweep plus a
// shadow copy every epoch for zero byte savings. The cache backs off
// per-object: after two consecutive failed delta attempts, decide/report
// return a skip window — the number of upcoming emits to leave undiffed and
// unshadowed, doubling per round up to skipMax — which the emitter parks in
// the object's Info (Info.shadowSkip) and consumes there, without taking the
// cache's lock again until the window drains and the next probe runs. The
// arming call stales the entry up front, covering the full payloads the
// window ships. Worst-case overhead is amortized to a few percent while a
// drop in churn is still discovered.
type ShadowCache struct {
	mu      sync.Mutex
	minSize int
	entries map[uint64]*shadowEntry
	// count mirrors len(entries), readable without mu: decide's sub-floor
	// fast path checks it to skip the lock while nothing is shadowed.
	count  atomic.Int64
	epochs map[uint64][]uint64 // in-flight epoch -> staged ids
	free   [][]byte            // recycled payload buffers (never ack-path buffers)
	stats  ShadowStats
}

// shadowEntry is one object's shadow state.
type shadowEntry struct {
	committed []byte
	hash      uint32
	// stale means committed no longer matches the object's latest payload
	// in the stream (a backoff-suppressed emit, or an abort), so it must
	// not serve as a diff base.
	stale bool
	pend  []pendingShadow

	// miss counts consecutive failed delta attempts; at missBackoff each
	// further miss arms a skip window (missLocked) that the emitter parks
	// in the object's Info and consumes lock-free.
	miss uint8
}

// pendingShadow is a staged payload copy awaiting its epoch's commit.
type pendingShadow struct {
	epoch uint64
	buf   []byte
	hash  uint32
}

// ShadowStats counts cache activity, for tests and diagnostics.
type ShadowStats struct {
	// Staged counts payload copies staged; Committed and Aborted count
	// epoch resolutions that promoted or dropped pending shadows.
	Staged    int
	Committed int
	Aborted   int
	// Wins and Losses count delta attempts by outcome; SkippedEmits counts
	// emits left undiffed by the churn backoff.
	Wins         int
	Losses       int
	SkippedEmits int
}

const (
	// deltaLimitNum/Den: a delta must come in under ~3/4 of the full
	// payload or the full payload is shipped instead — past that point the
	// opcode stream plus apply cost outweighs the byte savings.
	deltaLimitNum = 3
	deltaLimitDen = 4
	// missBackoff failed attempts in a row arm the skip window.
	missBackoff = 2
	skipMax     = 64
)

// NewShadowCache returns a cache shadowing only payloads larger than minSize
// bytes (small records gain nothing from delta framing; minSize <= 0 shadows
// everything). One cache serves one logical stream: share it across the
// writers of a stream (parfold workers, a tracker fold and its Full-mode
// fallback) and never across streams.
func NewShadowCache(minSize int) *ShadowCache {
	return &ShadowCache{
		minSize: minSize,
		entries: make(map[uint64]*shadowEntry),
		epochs:  make(map[uint64][]uint64),
	}
}

// MinSize returns the shadowing threshold.
func (c *ShadowCache) MinSize() int { return c.minSize }

// Len returns the number of shadowed objects.
func (c *ShadowCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache's counters.
func (c *ShadowCache) Stats() ShadowStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// CommittedBase returns a copy of the payload the cache would use as the
// diff base for id if no epoch were in flight: the last committed shadow, or
// nil when none exists or the entry is stale. It exists for tests asserting
// the commit/abort contract (an abort must leave the base at the last
// committed payload).
func (c *ShadowCache) CommittedBase(id uint64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[id]
	if e == nil || e.stale || e.committed == nil {
		return nil
	}
	return append([]byte(nil), e.committed...)
}

// decide is the per-record policy call, made by the emitter before framing a
// payload of n bytes for id. It returns the diff base to attempt a delta
// against (nil: emit a full payload), whether the payload should be staged
// as the object's next shadow, and — when the call armed the churn backoff —
// the skip window for the emitter to park in the object's Info.
func (c *ShadowCache) decide(id uint64, n int, mode Mode) (base []byte, hash uint32, stage bool, window int) {
	if n <= c.minSize && c.count.Load() == 0 {
		// Below the floor while nothing is shadowed: no entry to stale-mark,
		// no base to serve. An entry for this id could only have been created
		// by this id's own writer, synchronously before this call, so the
		// lock-free check cannot miss one. Domains whose payloads never
		// exceed the floor stay at plain-writer cost.
		return nil, 0, false, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[id]
	if n <= c.minSize {
		// The object shrank out of shadowing range: its full payload is in
		// the stream now, so an existing shadow no longer matches it.
		if e != nil {
			e.stale = true
		}
		return nil, 0, false, 0
	}
	if e == nil {
		return nil, 0, true, 0 // first sighting: establish the shadow
	}
	if mode == Full {
		// Full bodies never carry deltas (a full checkpoint resets the
		// rebuilder, so a delta in one has no base) but refresh the shadow,
		// so the incremental epochs that follow can diff immediately.
		return nil, 0, true, 0
	}
	if k := len(e.pend); k > 0 && !e.stale {
		// The newest pending shadow is the base: its epoch's body precedes
		// this one in the stream, so the rebuilder materializes it first.
		// A stale entry disqualifies pendings too — staling paths that ship
		// unstaged full payloads (a shrink below the floor, a churn-window
		// arming) leave older pends behind, and the object's latest payload
		// in the stream is the unstaged full body, not the pend. Stage
		// resets the flag once a copy that matches the stream is restaged.
		base, hash = e.pend[k-1].buf, e.pend[k-1].hash
	} else if !e.stale && e.committed != nil {
		base, hash = e.committed, e.hash
	}
	if base == nil {
		return nil, 0, true, 0 // no usable base: full payload, re-establish
	}
	if len(base) != n {
		// Resizing payloads cannot delta (deltas are aligned); treat like a
		// failed attempt so oscillating objects back off too. A window armed
		// here behaves like a loss-armed one: the entry is staled and the
		// payload left unstaged, since the window's emits would stale any
		// staged copy before it could serve.
		if w := c.missLocked(e); w > 0 {
			e.stale = true
			return nil, 0, false, int(w)
		}
		return nil, 0, true, 0
	}
	return base, hash, true, 0
}

// report records a delta attempt's outcome for id. On a loss that arms the
// churn backoff it returns the skip window: the next `window` emits of the
// object are to be left undiffed and unshadowed, a count the emitter parks
// in the object's Info and consumes without coming back to the cache. The
// entry is staled here, up front — the window's emits ship full payloads
// that supersede the shadow without refreshing it — so the emitter also
// drops any staging for the current record (the copy could never serve).
func (c *ShadowCache) report(id uint64, win bool) (window int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[id]
	if e == nil {
		return 0
	}
	if win {
		e.miss = 0
		c.stats.Wins++
		return 0
	}
	c.stats.Losses++
	if w := c.missLocked(e); w > 0 {
		e.stale = true
		return int(w)
	}
	return 0
}

// missLocked advances the churn backoff after a failed attempt and returns
// the skip window it arms, or 0 while the streak is below missBackoff.
func (c *ShadowCache) missLocked(e *shadowEntry) uint16 {
	if e.miss < 255 {
		e.miss++
	}
	if e.miss < missBackoff {
		return 0
	}
	w := uint16(1) << min(e.miss-missBackoff, 6)
	if w > skipMax {
		w = skipMax
	}
	return w
}

// addSkipped accumulates emits the churn backoff left undiffed. The skip
// path itself never takes the cache's lock — emitters count skips locally
// and flush the batch here once per epoch (Emitter.TakeShadowStages).
func (c *ShadowCache) addSkipped(n int) {
	c.mu.Lock()
	c.stats.SkippedEmits += n
	c.mu.Unlock()
}

// ShadowStage is one payload copy bound for the cache: the emitter
// accumulates them per epoch (copyPayload) and the epoch's driver stages the
// batch at Finish (Stage) or discards it when the epoch dies before its body
// completes (Discard). The fields are owned by the cache.
type ShadowStage struct {
	id   uint64
	buf  []byte
	hash uint32
}

// copyPayload copies payload into a cache-owned buffer (recycled when one
// fits) and fingerprints it, returning the stage entry to accumulate.
func (c *ShadowCache) copyPayload(id uint64, payload []byte) ShadowStage {
	c.mu.Lock()
	buf := c.getBufLocked(len(payload))
	c.mu.Unlock()
	buf = buf[:len(payload)]
	copy(buf, payload)
	return ShadowStage{id: id, buf: buf, hash: wire.DeltaBaseHash(buf)}
}

// getBufLocked returns a buffer with capacity for n bytes, recycling a
// discarded one when it fits.
func (c *ShadowCache) getBufLocked(n int) []byte {
	for i := len(c.free) - 1; i >= 0 && i >= len(c.free)-8; i-- {
		if cap(c.free[i]) >= n {
			buf := c.free[i]
			c.free[i] = c.free[len(c.free)-1]
			c.free[len(c.free)-1] = nil
			c.free = c.free[:len(c.free)-1]
			return buf[:0]
		}
	}
	return make([]byte, 0, n)
}

// Stage registers an epoch's payload copies as pending shadows. The epoch
// stays in flight until CommitEpoch or AbortEpoch resolves it — with a
// Session attached, Session.Commit/Abort route here (Session.AttachShadow).
// Staging the same epoch again replaces its entries (a retake under the same
// epoch after a partial failure).
func (c *ShadowCache) Stage(epoch uint64, stages []ShadowStage) {
	if len(stages) == 0 {
		return // nothing pending: CommitEpoch and AbortEpoch treat the epoch as empty
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.epochs[epoch]
	for _, st := range stages {
		e := c.entries[st.id]
		if e == nil {
			e = &shadowEntry{}
			c.entries[st.id] = e
		}
		if n := len(e.pend); n > 0 && e.pend[n-1].epoch == epoch {
			// Same-epoch restage: the new payload supersedes.
			c.free = append(c.free, e.pend[n-1].buf)
			e.pend[n-1] = pendingShadow{epoch: epoch, buf: st.buf, hash: st.hash}
		} else {
			e.pend = append(e.pend, pendingShadow{epoch: epoch, buf: st.buf, hash: st.hash})
			ids = append(ids, st.id)
		}
		// The newest pending now matches the object's latest payload in the
		// stream, so the entry serves diffs again.
		e.stale = false
		c.stats.Staged++
	}
	c.epochs[epoch] = ids
	c.count.Store(int64(len(c.entries)))
}

// Discard recycles stage entries that never reached Stage: the epoch's fold
// failed or its body was abandoned before Finish, so the copies were never
// published and their buffers can be reused directly.
func (c *ShadowCache) Discard(stages []ShadowStage) {
	if len(stages) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range stages {
		c.free = append(c.free, st.buf)
	}
}

// CommitEpoch promotes epoch's pending shadows to committed: the epoch's
// body is durable, so its payloads are now the diff bases for the records
// that follow. A Full epoch additionally prunes entries it did not stage —
// objects absent from a full checkpoint are dead (or shrank below the
// shadowing threshold), and must not linger.
//
// Buffers replaced on the commit path are never recycled: an emitter may be
// diffing against them concurrently (acknowledgements arrive from the log's
// goroutine), so they are left to the garbage collector.
func (c *ShadowCache) CommitEpoch(epoch uint64, mode Mode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.epochs[epoch]
	delete(c.epochs, epoch)
	for _, id := range ids {
		e := c.entries[id]
		if e == nil {
			continue
		}
		for i, p := range e.pend {
			if p.epoch == epoch {
				// In-order resolution makes i == 0; older unresolved
				// pendings (a protocol violation) are dropped with it.
				e.committed, e.hash = p.buf, p.hash
				e.pend = append(e.pend[:0], e.pend[i+1:]...)
				break
			}
		}
	}
	c.stats.Committed++
	if mode != Full {
		return
	}
	staged := make(map[uint64]struct{}, len(ids))
	for _, id := range ids {
		staged[id] = struct{}{}
	}
	for id, e := range c.entries {
		if _, ok := staged[id]; !ok && len(e.pend) == 0 {
			delete(c.entries, id)
		}
	}
	c.count.Store(int64(len(c.entries)))
}

// AbortEpoch drops epoch's pending shadows — its body never became part of
// the stream — and stales every touched entry, conservatively covering
// pendings of later epochs encoded against the lost payloads. That cover
// depends on the sticky-failure requirement documented on
// Session.AttachShadow: a sink must abort every epoch in flight after the
// first lost one, never commit a later epoch whose delta bases died with an
// earlier body. The surviving committed shadow is exactly the last
// committed payload; the entry serves diffs again once a re-marked emit
// restages it.
func (c *ShadowCache) AbortEpoch(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.epochs[epoch]
	delete(c.epochs, epoch)
	for _, id := range ids {
		e := c.entries[id]
		if e == nil {
			continue
		}
		kept := e.pend[:0]
		for _, p := range e.pend {
			if p.epoch < epoch {
				kept = append(kept, p)
			}
		}
		for i := len(kept); i < len(e.pend); i++ {
			e.pend[i] = pendingShadow{}
		}
		e.pend = kept
		e.stale = true
	}
	c.stats.Aborted++
}

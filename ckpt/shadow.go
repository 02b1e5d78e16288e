package ckpt

import (
	"sync"
	"sync/atomic"

	"ickpt/wire"
)

// This file implements the shadow-payload cache behind sub-object delta
// encoding. The emitter diffs each large record payload against the object's
// head — one buffer per object, holding the payload the object last staged —
// and ships only the changed byte runs (wire.KindDelta). One invariant makes
// that safe under the epoch commit/abort protocol: a head serves diffs iff it
// equals the object's latest payload in the published stream; abort, failed
// fold, shrink and churn window stale it; commit never touches bytes.
//
//   - The emitter that records an object overwrites its head in place,
//     outside the cache's lock (advanceHead): no buffer is allocated, zeroed
//     or retained per record. The epoch's driver then stages the batch
//     (stage), which installs each head's new hash and clears its stale flag.
//     An in-flight epoch's body precedes the next one in the stream — the
//     rebuilder will have materialized its payload by the time the next delta
//     applies — so the head serves before its epoch is acknowledged.
//   - Session.Commit and Session.Abort route to commitEpoch and abortEpoch,
//     which touch flags under the lock and never a payload byte: the ack
//     goroutine and the emitters share no buffer. An abort stales every entry
//     the epoch staged, so an aborted epoch can never poison the base: the next
//     emit of the object ships a full payload and re-establishes the head from
//     bytes that actually reached the stream. A fold that fails before its body
//     is published (discard) stales the heads it advanced the same way.
//   - An object emitted while its shadow update is suppressed (the churn
//     backoff below, a shrink below the floor) stales its entry too. The base
//     hash embedded in every delta (wire.DeltaBaseHash) is the recovery-time
//     backstop should a driver violate the protocol.
//
// Fully-churned objects would otherwise pay a wasted comparison sweep plus a
// shadow copy every epoch for zero byte savings. The cache backs off
// per-object: after two consecutive failed delta attempts, decide/report
// return a skip window — the number of upcoming emits to leave undiffed and
// unshadowed, doubling per round up to skipMax — which the emitter parks in
// the object's Info (its 7-bit shadowSkip counter, so skipMax must stay
// below 128) and consumes there, without taking the cache's lock again
// until the window drains and the next probe runs. The
// arming call stales the entry up front, covering the full payloads the
// window ships. Worst-case overhead is amortized to a few percent while a
// drop in churn is still discovered.
type ShadowCache struct {
	mu      sync.Mutex
	minSize int
	entries map[uint64]*shadowEntry
	// count mirrors len(entries), readable without mu: decide's sub-floor
	// fast path checks it to skip the lock while nothing is shadowed.
	count atomic.Int64
	stats ShadowStats
}

// shadowEntry is one object's shadow state. The fields are guarded by the
// cache's mu; head's bytes are not — they belong to the one emitter recording
// the object (a stream's writers fold disjoint objects).
type shadowEntry struct {
	head []byte
	hash uint32
	// stale means head does not match the object's latest payload in the
	// published stream, so it must not serve as a diff base until an emit
	// restages it.
	stale bool
	// epoch is the newest epoch that staged head. A stream's epochs ascend, so
	// it is all an epoch's resolution needs to find its entries: an abort
	// stales those staged by the lost epoch or a later one, a Full commit
	// prunes those staged by neither it nor a later epoch in flight.
	epoch uint64

	// miss counts consecutive failed delta attempts; at missBackoff each
	// further miss arms a skip window (missLocked) that the emitter parks
	// in the object's Info and consumes lock-free.
	miss uint8
}

// ShadowStats counts cache activity, for tests and diagnostics.
type ShadowStats struct {
	// Staged counts payloads staged; Committed and Aborted count epoch
	// resolutions.
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
	}
}

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

// decide is the per-record policy call, made by the emitter before framing a
// payload of n bytes for id. It returns the object's head buffer (nil before
// its first staging), whether to attempt a delta against it (diff; hash is
// then its fingerprint), whether the payload should be staged as the object's
// next head — the emitter advances head to it (advanceHead) — and, when the
// call armed the churn backoff, the skip window for the emitter to park in
// the object's Info.
func (c *ShadowCache) decide(id uint64, n int, mode Mode) (head []byte, hash uint32, diff, stage bool, window int) {
	if n <= c.minSize && c.count.Load() == 0 {
		// Below the floor while nothing is shadowed: no entry to stale-mark,
		// no base to serve. An entry for this id could only have been created
		// by this id's own writer, synchronously before this call, so the
		// lock-free check cannot miss one. Domains whose payloads never
		// exceed the floor stay at plain-writer cost.
		return nil, 0, false, false, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[id]
	if n <= c.minSize {
		// The object shrank out of shadowing range: its full payload is in
		// the stream now, so an existing head no longer matches it.
		if e != nil {
			e.stale = true
		}
		return nil, 0, false, false, 0
	}
	if e == nil {
		return nil, 0, false, true, 0 // first sighting: establish the head
	}
	if mode == Full || e.stale {
		// Full bodies never carry deltas (a full checkpoint resets the
		// rebuilder, so a delta in one has no base) but refresh the head, so
		// the incremental epochs that follow can diff immediately. A stale
		// head has no usable base either: full payload, re-establish.
		return e.head, 0, false, true, 0
	}
	if len(e.head) != n {
		// Resizing payloads cannot delta (deltas are aligned); treat like a
		// failed attempt so oscillating objects back off too. A window armed
		// here behaves like a loss-armed one: the entry is staled and the
		// payload left unstaged, since the window's emits would stale any
		// staged copy before it could serve.
		if w := c.missLocked(e); w > 0 {
			e.stale = true
			return nil, 0, false, false, int(w)
		}
		return e.head, 0, false, true, 0
	}
	return e.head, e.hash, true, true, 0
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

// ShadowStage is one advanced head bound for the cache: the emitter
// accumulates them per epoch (advanceHead) and the epoch's driver stages the
// batch at Finish (stage) or discards it when the epoch dies before its body
// completes (discard). The fields are owned by the cache. hash is the head's
// fingerprint and is not filled when the stage is created: the emitter hashes
// its stages four at a time (hashStages) and has hashed all of them by the
// time TakeShadowStages hands the batch out, so stage — the only reader —
// always sees it; discard never looks.
type ShadowStage struct {
	id   uint64
	buf  []byte
	hash uint32
}

// advanceHead overwrites head — the object's buffer as decide handed it out,
// replaced only when it is too small — with payload and returns the stage
// entry to accumulate, its hash still to be filled. Both buffers are cache-hot
// here (Record just wrote one, the diff just read the other), which makes the
// plain copy cheaper than patching the delta's literal runs in.
func advanceHead(id uint64, head, payload []byte) ShadowStage {
	return ShadowStage{id: id, buf: append(head[:0], payload...)}
}

// hashLanes is how many heads hashStages fingerprints side by side.
const hashLanes = 4

// hashStages fills the hash of up to hashLanes stages. One fingerprint is a
// serial multiply chain, bound by latency rather than by loads, so four
// independent chains interleaved (wire.DeltaBaseHash4) finish in little more
// than the time of one — and the heads of the last four records are still in
// L2 when the emitter gets here.
func hashStages(st []ShadowStage) {
	var lanes [hashLanes][]byte
	for i := range st {
		lanes[i] = st[i].buf
	}
	var h [hashLanes]uint32
	h[0], h[1], h[2], h[3] = wire.DeltaBaseHash4(lanes[0], lanes[1], lanes[2], lanes[3])
	for i := range st {
		st[i].hash = h[i]
	}
}

// stage publishes an epoch's advanced heads: each becomes its object's diff
// base for the records that follow. The epoch stays in flight until
// commitEpoch or abortEpoch resolves it — with a Session attached,
// Session.Commit/Abort route here (Settle attaches the cache to the epoch).
// Staging the same epoch again supersedes (a retake under the same epoch
// after a partial failure).
func (c *ShadowCache) stage(epoch uint64, stages []ShadowStage) {
	if len(stages) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range stages {
		e := c.entries[st.id]
		if e == nil {
			e = &shadowEntry{}
			c.entries[st.id] = e
		}
		// The head now matches the object's latest payload in the stream, so
		// the entry serves diffs again.
		e.head, e.hash, e.epoch, e.stale = st.buf, st.hash, epoch, false
	}
	c.stats.Staged += len(stages)
	c.count.Store(int64(len(c.entries)))
}

// discard stales the entries of stages that never reached stage: the epoch's
// fold failed or its body was abandoned before Finish, so the heads were
// advanced to payloads that are never published. The retake ships those
// objects in full and re-establishes their heads.
func (c *ShadowCache) discard(stages []ShadowStage) {
	if len(stages) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range stages {
		if e := c.entries[st.id]; e != nil {
			e.stale = true
		}
	}
}

// commitEpoch resolves epoch as durable. The heads it staged already serve as
// diff bases, so an Incremental commit has nothing to promote. A Full commit
// prunes the entries neither it nor a later epoch in flight staged — objects
// absent from a full checkpoint are dead (or shrank below the shadowing
// threshold), and must not linger.
func (c *ShadowCache) commitEpoch(epoch uint64, mode Mode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Committed++
	if mode != Full {
		return
	}
	for id, e := range c.entries {
		if e.epoch < epoch {
			delete(c.entries, id)
		}
	}
	c.count.Store(int64(len(c.entries)))
}

// abortEpoch resolves epoch as lost — its body never became part of the
// stream — and stales every entry staged by it or by a later epoch, whose
// records were encoded against the lost payloads. Later epochs are lost with
// it by the sticky-failure requirement documented on Session.Abort: a
// sink must abort every epoch in flight after the first lost one, never
// commit a later epoch whose delta bases died with an earlier body. An entry
// serves diffs again once a re-marked emit restages it. Aborts are the rare
// path, so they pay a scan of the cache rather than every epoch paying to
// record which ids it staged.
func (c *ShadowCache) abortEpoch(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Aborted++
	for _, e := range c.entries {
		if e.epoch >= epoch {
			e.stale = true
		}
	}
}

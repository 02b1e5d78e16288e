package ckpt

import "ickpt/wire"

// Checkpoint body layout:
//
//	header:  version byte, mode byte, epoch uvarint
//	records: (id uvarint, typeID uvarint, payloadLen uvarint, payload)*
//
// The payload of a record is exactly what the object's Record method wrote.
//
// Version 2 — written only by delta-enabled emitters (WithDeltaEncoding /
// WithShadowCache) — inserts a kind byte between the type and the length:
//
//	records: (id uvarint, typeID uvarint, kind byte, payloadLen uvarint, payload)*
//
// kind wire.KindFull payloads are Record output as in version 1; kind
// wire.KindDelta payloads are a copy/patch opcode stream (wire.AppendDeltaHashed)
// against the object's previous payload in the stream. Writers without a
// shadow cache keep producing version 1, byte-identical to before.
const (
	bodyVersion  = 1
	bodyVersion2 = 2
)

// Stats accumulates counters for one checkpoint.
type Stats struct {
	// Visited counts objects traversed (recorded or not).
	Visited int
	// Recorded counts objects whose state was written.
	Recorded int
	// Skipped counts objects whose modified flag was tested and found
	// clear.
	Skipped int
	// Deltas counts recorded objects shipped as payload deltas
	// (wire.KindDelta) rather than full payloads.
	Deltas int
	// Bytes is the total body size, including header and framing.
	Bytes int
}

// Add accumulates the counters of o into s. Bytes is summed like the other
// counters; callers merging worker bodies behind a single header (package
// parfold) overwrite it with the merged length afterwards.
func (s *Stats) Add(o Stats) {
	s.Visited += o.Visited
	s.Recorded += o.Recorded
	s.Skipped += o.Skipped
	s.Deltas += o.Deltas
	s.Bytes += o.Bytes
}

// appendBodyHeader writes the checkpoint body header — format version, mode,
// epoch — to dst. It is the one place the header is encoded; kinds selects
// version 2, whose records carry a kind byte.
func appendBodyHeader(dst *wire.Encoder, kinds bool, mode Mode, epoch uint64) {
	if kinds {
		dst.Byte(bodyVersion2)
	} else {
		dst.Byte(bodyVersion)
	}
	dst.Byte(byte(mode))
	dst.Uvarint(epoch)
}

// Emitter frames object records into a checkpoint body. It is the shared
// low-level sink used by the generic Writer, by compiled specialization
// plans, and by generated specialized checkpoint functions, guaranteeing
// that all of them produce byte-identical streams.
//
// Records are encoded zero-copy: Begin writes the id and type to the
// destination, reserves a one-byte length placeholder, and hands the
// destination encoder straight to Record; End patches the placeholder
// (wire.Encoder.PatchUvarint), shifting the payload only when it runs 128
// bytes or longer.
type Emitter struct {
	dst    *wire.Encoder
	stats  Stats
	clears []ClearEntry

	curID   uint64
	curInfo *Info
	lenPos  int

	// Delta encoding state. When shadow is non-nil the emitter frames
	// version-2 records (with a kind byte) and diffs each payload larger
	// than the cache's threshold against the object's shadow, shipping the
	// delta when it wins (see ShadowCache). mode gates the diff: Full
	// bodies never carry deltas. stages accumulates the heads the epoch's
	// records advanced — fingerprinted in whole groups of hashLanes, the last
	// one to three waiting for the group to fill or for TakeShadowStages;
	// Settle stages them when the epoch ends, or stales them when its fold
	// failed.
	shadow   *ShadowCache
	mode     Mode
	deltaBuf wire.Encoder
	stages   []ShadowStage
	kindPos  int
	// shadowSkips counts emits the churn backoff left undiffed (consumed
	// from the Info's shadowSkip counter without touching the cache);
	// TakeShadowStages flushes it into the cache's stats once per epoch.
	shadowSkips int
}

// SetShadow attaches (or detaches, with nil) the shadow cache that switches
// the emitter into delta-enabled version-2 framing. Must not be called
// between Reset and the end of the body. Writer options (WithDeltaEncoding,
// WithShadowCache) are the usual entry point: they also make the writer the
// one that settles the epoch's staged shadows. Attaching the cache to the
// emitter alone yields a detached writer — it diffs against the cache, but
// whoever drives it must take its stages and settle them (parfold's shard
// workers, whose folder settles the merged epoch once).
func (em *Emitter) SetShadow(c *ShadowCache) { em.shadow = c }

// TakeShadowStages returns the shadow stages accumulated for the epoch in
// progress, for the caller to hand to Settle: a Writer does when its epoch
// ends, and a parallel fold gathers its detached workers' batches and settles
// the merged epoch as one. The slice is lent, not given — the emitter's next
// epoch refills it — so it must be settled before the emitter records again.
// The heads the four-at-a-time cadence left over are fingerprinted here, on
// the goroutine that folded them.
func (em *Emitter) TakeShadowStages() []ShadowStage {
	if em.shadowSkips > 0 && em.shadow != nil {
		em.shadow.addSkipped(em.shadowSkips)
		em.shadowSkips = 0
	}
	p := em.stages
	if rest := len(p) % hashLanes; rest > 0 {
		hashStages(p[len(p)-rest:])
	}
	em.stages = p[:0]
	return p
}

// Reset points the emitter at dst, writes the body header, and clears the
// statistics.
func (em *Emitter) Reset(dst *wire.Encoder, mode Mode, epoch uint64) {
	em.dst = dst
	em.mode = mode
	em.stats = Stats{}
	// The previous epoch's clear-set and stages were taken when it settled.
	// The clear-set backing array is recycled: draw from the pool that
	// Commit/Abort retire into, so a steady-state epoch never allocates one.
	em.clears = getClears()
	appendBodyHeader(dst, em.shadow != nil, mode, epoch)
}

// Begin starts the record for one object and returns the encoder into which
// the object's payload (its Record output) must be written. Each Begin must
// be paired with End before the next Begin.
//
// Begin is also where the epoch's clear-set is captured: if the object's
// modified flag is set now, the caller is about to record the object and
// clear the flag (every engine — Emit/EmitIfModified, reflectckpt, compiled
// plans, generated routines — funnels through Begin before it resets the
// flag), so the object's id and Info are appended to the clear-set for
// commit/abort accounting. See Session.
func (em *Emitter) Begin(info *Info, t TypeID) *wire.Encoder {
	if info.Modified() {
		em.clears = append(em.clears, ClearEntry{ID: info.ID(), Info: info})
	}
	em.curID = info.ID()
	em.curInfo = info
	em.dst.Uvarint(info.ID())
	em.dst.Uvarint(uint64(t))
	if em.shadow != nil {
		em.kindPos = em.dst.Len()
		em.dst.Byte(wire.KindFull)
	}
	em.lenPos = em.dst.ReserveUvarint()
	return em.dst
}

// End frames the payload started by Begin into the destination stream by
// patching the reserved length prefix in place.
//
// With a shadow cache attached, End is also where the delta decision runs:
// the completed payload is diffed against the object's shadow, the delta
// replaces the payload when it comes in under the size limit (by truncating
// back to the reserved prefix and patching the kind byte), and the object's
// shadow is advanced to the payload so the next epoch diffs against it.
func (em *Emitter) End() {
	if em.shadow != nil {
		payload := em.dst.Bytes()[em.lenPos+1:]
		if em.deltaOrFull(payload) == wire.KindDelta {
			// The shadow has been advanced to the payload and the delta is in
			// deltaBuf; rewind to the reserved length prefix and frame the
			// delta in its place.
			em.dst.Truncate(em.lenPos + 1)
			em.dst.Raw(em.deltaBuf.Bytes())
			em.dst.PatchByte(em.kindPos, wire.KindDelta)
		}
	}
	em.dst.PatchUvarint(em.lenPos)
	em.stats.Recorded++
}

// deltaOrFull consults the shadow cache for the record's diff base, attempts
// the delta, advances the object's head to the payload — in place — when the
// cache asks for it staged, and returns the record kind to frame. The delta
// bytes, when it returns wire.KindDelta, are in em.deltaBuf.
//
// The churn backoff's skip window is consumed here, from the object's own
// Info, before the cache is ever consulted: a fully-churned object in its
// backed-off steady state costs one load and a decrement per emit — no lock,
// no map — which is what keeps the delta writer within noise of a plain
// writer when deltas never win. The report that armed the window staled the
// cache entry, so the full payloads shipped during the window cannot leave a
// poisoned diff base behind.
func (em *Emitter) deltaOrFull(payload []byte) byte {
	if em.curInfo.flags&skipMask > 0 {
		if em.mode != Full {
			em.curInfo.flags-- // the counter is the low bits
			em.shadowSkips++
			return wire.KindFull
		}
		// A Full emit refreshes the shadow (decide stages below), giving the
		// object a fresh base; the rest of the window would only waste it.
		em.curInfo.flags &^= skipMask
	}
	head, hash, diff, stage, window := em.shadow.decide(em.curID, len(payload), em.mode)
	kind := wire.KindFull
	if diff {
		em.deltaBuf.Reset()
		win := wire.AppendDeltaHashed(&em.deltaBuf, head, hash, payload,
			len(payload)*deltaLimitNum/deltaLimitDen)
		if w := em.shadow.report(em.curID, win); w > 0 {
			// The loss armed the churn backoff: the coming emits skip the
			// cache entirely and the entry is already stale, so an advanced
			// head could never serve as a base — save the copy.
			window = w
			stage = false
		}
		if win {
			kind = wire.KindDelta
			em.stats.Deltas++
		}
	}
	if window > 0 {
		em.curInfo.flags |= uint16(window) // the counter is zero here
	}
	if stage {
		em.stages = append(em.stages, advanceHead(em.curID, head, payload))
		if n := len(em.stages); n%hashLanes == 0 {
			hashStages(em.stages[n-hashLanes:])
		}
	}
	return kind
}

// Emit records o unconditionally: Begin, o.Record, End, and clears the
// modified flag.
func (em *Emitter) Emit(o Checkpointable) {
	info := o.CheckpointInfo()
	p := em.Begin(info, o.CheckpointTypeID())
	o.Record(p)
	em.End()
	info.ResetModified()
}

// EmitIfModified records o only if its modified flag is set, and reports
// whether it did.
func (em *Emitter) EmitIfModified(o Checkpointable) bool {
	info := o.CheckpointInfo()
	if !info.Modified() {
		em.stats.Skipped++
		return false
	}
	p := em.Begin(info, o.CheckpointTypeID())
	o.Record(p)
	em.End()
	info.ResetModified()
	return true
}

// Visit counts a traversed object. Callers that use Emit/EmitIfModified
// should call Visit once per object for accurate statistics.
func (em *Emitter) Visit() { em.stats.Visited++ }

// Skip counts an object whose modified flag was tested and found clear, for
// callers that perform the test themselves (specialized plans).
func (em *Emitter) Skip() { em.stats.Skipped++ }

// TakeClears returns the clear-set accumulated since Reset — one entry per
// object whose modified flag was set when its record began — and detaches it
// from the emitter, transferring ownership to the caller, who must hand it to
// Settle or to Session.Observe (a Writer ending an epoch, or a parallel fold
// gathering its detached workers' sets).
func (em *Emitter) TakeClears() []ClearEntry {
	c := em.clears
	em.clears = nil
	return c
}

// Stats returns the counters accumulated since Reset, with Bytes set to the
// destination length so far.
func (em *Emitter) Stats() Stats {
	s := em.stats
	if em.dst != nil {
		s.Bytes = em.dst.Len()
	}
	return s
}

// bodyHeader is the decoded checkpoint body header.
type bodyHeader struct {
	version byte
	mode    Mode
	epoch   uint64
}

// record is one framed object record within a body. The payload aliases the
// body buffer. kind is wire.KindFull for version-1 bodies, whose records
// carry no kind byte.
type record struct {
	id      uint64
	typeID  TypeID
	kind    byte
	payload []byte
}

// parseBodyHeader reads the header and leaves d positioned at the first
// record.
func parseBodyHeader(d *wire.Decoder) (bodyHeader, error) {
	var h bodyHeader
	h.version = d.Byte()
	h.mode = Mode(d.Byte())
	h.epoch = d.Uvarint()
	if err := d.Err(); err != nil {
		return h, err
	}
	if h.version != bodyVersion && h.version != bodyVersion2 {
		return h, ErrBadBody
	}
	if h.mode != Full && h.mode != Incremental {
		return h, ErrBadBody
	}
	return h, nil
}

// nextRecord reads one framed record; hasKind selects the version-2 framing
// with a kind byte between type and length. It returns ok=false at a clean
// end of body.
func nextRecord(d *wire.Decoder, hasKind bool) (rec record, ok bool, err error) {
	if d.Len() == 0 {
		return record{}, false, nil
	}
	rec.id = d.Uvarint()
	rec.typeID = TypeID(d.Uvarint())
	if hasKind {
		rec.kind = d.Byte()
		if rec.kind != wire.KindFull && rec.kind != wire.KindDelta {
			if err := d.Err(); err != nil {
				return record{}, false, err
			}
			return record{}, false, ErrBadBody
		}
	}
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return record{}, false, err
	}
	if n > uint64(d.Len()) {
		return record{}, false, ErrBadBody
	}
	rec.payload = d.Raw(int(n))
	if err := d.Err(); err != nil {
		return record{}, false, err
	}
	return rec, true, nil
}

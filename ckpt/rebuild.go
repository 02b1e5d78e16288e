package ckpt

import (
	"cmp"
	"errors"
	"fmt"

	"ickpt/wire"
)

// latestRec is one object's entry in a generation: its most recent payload.
// present marks a slot of an idTable's dense part that holds an entry. owned
// marks a buffer the generation owns (version-2 records are
// materialized into owned storage rather than aliasing the body), which a
// later record for the object may overwrite in place instead of allocating.
//
// staged marks an entry not materialized yet: a run that extends the live
// state keeps its first record for an object as it came, aliasing its
// version-2 body — a full payload or, for kind wire.KindDelta, an op stream
// against the live payload. Publishing the run materializes it in place over
// the live buffer; a later record of the run for that object first
// materializes it into a buffer of the run's own.
type latestRec struct {
	typeID  TypeID
	owned   bool
	staged  bool
	kind    byte
	present bool
	payload []byte
}

// Rebuilder reconstructs object state from a sequence of checkpoint bodies:
// one base full checkpoint followed by any number of incremental bodies, in
// the order they were taken. It keeps, per object id, the most recent record
// payload — materializing delta records (wire.KindDelta) against it as they
// arrive; Build then materializes the object graph through a Registry.
//
// The records are held by id in a table (idTable) that indexes the dense ids
// a Domain hands out directly, and keeps sparse ids — ids far past twice the
// object count — in a map: what a rebuilder allocates follows the objects it
// holds, never the magnitude of their ids.
//
// Rebuilder is not safe for concurrent use.
type Rebuilder struct {
	reg    *Registry
	latest idTable
	maxID  uint64
	seen   int // bodies applied

	// staged is the generation of a run that extends the live state, kept
	// across runs (and empty between them) so that a replica applying one
	// body at a time allocates nothing in the steady state.
	staged idTable
}

// NewRebuilder returns a Rebuilder resolving types through reg.
func NewRebuilder(reg *Registry) *Rebuilder {
	return &Rebuilder{reg: reg}
}

// Apply folds one checkpoint body into the rebuilder; it is ApplyRun of that
// one body. A version-1 body is not copied — its record payloads are
// aliased, which keeps it alive while one of them is its object's latest,
// and it must not be mutated afterwards. Version-2
// (delta-enabled) bodies are not retained: every record, full or delta, is
// materialized into rebuilder-owned storage, reusing the object's previous
// buffer when the new payload fits.
//
// A Full body resets the state: objects absent from a full checkpoint are
// dead and must not resurface from older incrementals. The first body
// applied must be Full. A delta record must follow an earlier payload for
// the same object — in this body or a previous one — or Apply fails with
// ErrDeltaBase; a delta whose base hash disagrees with that payload fails
// the same way rather than materializing corrupt state.
//
// Apply is atomic: a body that fails to parse or validate leaves the
// rebuilder exactly as it was, so recovery can skip a corrupt body (or a
// body that a transient read error garbled) and continue from intact state.
func (rb *Rebuilder) Apply(body []byte) error {
	return rb.ApplyRun([][]byte{body})
}

var errFirstNotFull = fmt.Errorf("%w: first body must be a full checkpoint", ErrBadBody)

// validate checks one decoded record against what its object held just
// before it (of type prevType, when found): a nil id, a type conflict, and
// for a delta that there is a base at all. Whether the delta fits that base
// is checkDelta's question.
func (rb *Rebuilder) validate(mode Mode, rec record, prevType TypeID, found bool) error {
	if rec.id == NilID {
		return fmt.Errorf("%w: record with nil id", ErrBadBody)
	}
	if found && prevType != rec.typeID {
		return fmt.Errorf("%w: object %d recorded as %q then %q",
			ErrTypeConflict, rec.id, rb.reg.Name(prevType), rb.reg.Name(rec.typeID))
	}
	if rec.kind != wire.KindDelta {
		return nil
	}
	if mode == Full {
		return fmt.Errorf("%w: object %d: delta record in a full checkpoint", ErrDeltaBase, rec.id)
	}
	if !found {
		return fmt.Errorf("%w: object %d has no earlier payload in the stream", ErrDeltaBase, rec.id)
	}
	return nil
}

// checkDelta checks a delta record's structure, base length and base hash
// against base, whose DeltaBaseHash is baseHash.
func checkDelta(rec record, base []byte, baseHash uint32) error {
	if _, err := wire.ValidateDelta(rec.payload, len(base), baseHash); err != nil {
		if errors.Is(err, wire.ErrBaseMismatch) {
			return fmt.Errorf("%w: object %d: %v", ErrDeltaBase, rec.id, err)
		}
		return fmt.Errorf("%w: object %d: %v", ErrBadBody, rec.id, err)
	}
	return nil
}

// deltaBatch holds up to hashLanes delta records of one body whose bases
// have not been fingerprinted yet, each with cur, what its object holds. A
// base hash is one serial multiply chain over the whole payload, bound by
// multiply latency rather than by loads, so checking the records one at a
// time would leave the core mostly idle on a chain of 16 KB bases; drain
// runs four chains side by side (wire.DeltaBaseHash4) instead. The batched
// records name distinct objects — a record for an object already in the
// batch drains it first (settle) — so committing one never changes another's
// base. A batch never outlives its body: a body's failure is reported
// against that body.
type deltaBatch struct {
	n    int
	recs [hashLanes]record
	cur  [hashLanes]latestRec
}

// settle drains the batch into commit if a record for id waits in it, so
// that the record about to be read sees what its object holds.
func (b *deltaBatch) settle(id uint64, commit func(rec record, cur latestRec)) error {
	for i := range b.n {
		if b.recs[i].id == id {
			return b.drain(commit)
		}
	}
	return nil
}

// add batches a delta record against cur and drains the batch into commit
// once it is full.
func (b *deltaBatch) add(rec record, cur latestRec, commit func(rec record, cur latestRec)) error {
	b.recs[b.n], b.cur[b.n] = rec, cur
	b.n++
	if b.n < hashLanes {
		return nil
	}
	return b.drain(commit)
}

// drain fingerprints the batched bases together, then checks each delta
// against its base in record order and hands it to commit. It empties the
// batch and returns the first failure; the records after a failing one are
// not committed. A record that stopped the body's walk after these were
// batched comes later in the body, so its caller reports drain's failure
// first — the one a record-at-a-time check would have hit.
func (b *deltaBatch) drain(commit func(rec record, cur latestRec)) error {
	if b.n == 0 {
		return nil
	}
	var h [hashLanes]uint32
	h[0], h[1], h[2], h[3] = wire.DeltaBaseHash4(b.cur[0].payload, b.cur[1].payload, b.cur[2].payload, b.cur[3].payload)
	var err error
	for i := range b.n {
		if err = checkDelta(b.recs[i], b.cur[i].payload, h[i]); err != nil {
			break
		}
		commit(b.recs[i], b.cur[i])
	}
	*b = deltaBatch{} // unused lanes must be nil: DeltaBaseHash4 hashes every lane
	return err
}

// commitRecord materializes a validated version-2 record into owned
// storage; cur is what the object holds now (the zero value if nothing), and
// a delta's base. It reuses cur's owned buffer whenever the new payload fits
// its capacity — the steady-state same-size re-apply allocates nothing.
func commitRecord(cur latestRec, rec record) latestRec {
	n := len(rec.payload)
	if rec.kind == wire.KindDelta {
		n = len(cur.payload)
	}
	var dst []byte
	if cur.owned && cap(cur.payload) >= n {
		dst = cur.payload[:n]
	} else {
		dst = make([]byte, n)
	}
	switch {
	case rec.kind != wire.KindDelta:
		copy(dst, rec.payload)
	case n > 0:
		// dst may be the base itself (the common consecutive-epoch case);
		// in-place application is safe because aligned deltas only overwrite
		// literal runs.
		wire.ApplyValidatedDelta(dst, cur.payload, rec.payload)
	}
	return latestRec{typeID: rec.typeID, payload: dst, owned: true}
}

// generation is what a run has built so far, beside the rebuilder's state
// until it publishes. A run that begins with a Full body builds a new table
// and publishes by swapping it in. A run that begins with an incremental
// extends the live state: latest is the rebuilder's retained staged table,
// holding only the objects the run has recorded, and every other id reads
// through to live, which the run never writes. A Full later in the run drops
// live and starts a new table.
type generation struct {
	latest  *idTable
	live    *idTable
	maxID   uint64
	seen    int
	hasKind bool // the body being replayed is version 2
}

// lookup returns what object id holds before the record about to be read,
// and whether it exists: the run's own entry, materialized first into a
// buffer of the run's if it is staged, else the live state's.
func (g *generation) lookup(id uint64) (latestRec, bool) {
	cur, ok := g.latest.get(id)
	switch {
	case cur.staged:
		live, _ := g.live.get(id)
		staged := record{typeID: cur.typeID, kind: cur.kind, payload: cur.payload}
		cur = commitRecord(latestRec{payload: live.payload}, staged)
		g.latest.put(id, cur)
	case !ok && g.live != nil:
		cur, ok = g.live.get(id)
	}
	return cur, ok
}

// commit makes rec, validated against cur, its object's entry in the run.
// A version-1 record aliases its body; a version-2 one is kept.
func (g *generation) commit(rec record, cur latestRec) {
	e := latestRec{typeID: rec.typeID, payload: rec.payload}
	if g.hasKind {
		e = g.keep(rec, cur)
	}
	g.latest.put(rec.id, e)
	g.maxID = max(g.maxID, rec.id)
}

// keep returns the entry for a version-2 record: the record materialized
// into owned storage, except that an extending run stages its first record
// for an object, so the live buffer in cur is written only when the run
// publishes, and reused rather than replaced.
func (g *generation) keep(rec record, cur latestRec) latestRec {
	if g.live != nil {
		if _, ok := g.latest.get(rec.id); !ok {
			return latestRec{typeID: rec.typeID, payload: rec.payload, staged: true, kind: rec.kind}
		}
	}
	return commitRecord(cur, rec)
}

// replay folds one body, header already parsed off d, into the run's
// generation g: each record is decoded, validated and committed — a delta
// once its batch drains. It is the one record walk behind Apply and
// ApplyRun; a body that fails leaves g to be thrown away.
func (rb *Rebuilder) replay(g *generation, d *wire.Decoder, h bodyHeader) error {
	switch {
	case h.mode == Full:
		// A full checkpoint resets the state: a run extending the live one
		// stops reading it and starts a table of its own, as large as the
		// live one's dense part.
		if g.latest == nil || g.live != nil {
			g.latest = new(idTable)
			g.latest.extend(rb.latest.dense)
		} else {
			g.latest.clear()
		}
		*g = generation{latest: g.latest, seen: g.seen}
	case g.latest == nil:
		if rb.seen == 0 {
			return errFirstNotFull
		}
		*g = generation{latest: &rb.staged, live: &rb.latest, maxID: rb.maxID, seen: rb.seen}
	}
	g.hasKind = h.version == bodyVersion2
	// A failure ends the walk; the deltas still batched come before it in
	// the body, so theirs is reported first.
	var batch deltaBatch
	for {
		rec, ok, err := nextRecord(d, g.hasKind)
		if err != nil {
			return cmp.Or(batch.drain(g.commit), err)
		}
		if !ok {
			break
		}
		if err := batch.settle(rec.id, g.commit); err != nil {
			return err
		}
		cur, found := g.lookup(rec.id)
		if err := rb.validate(h.mode, rec, cur.typeID, found); err != nil {
			return cmp.Or(batch.drain(g.commit), err)
		}
		if rec.kind == wire.KindDelta {
			if err := batch.add(rec, cur, g.commit); err != nil {
				return err
			}
			continue
		}
		g.commit(rec, cur)
	}
	if err := batch.drain(g.commit); err != nil {
		return err
	}
	g.seen++
	return nil
}

// publish makes a finished run's generation the rebuilder's state: one that
// met a Full replaces it; an extending one is committed into it, each
// staged record materialized in place over its object's live buffer.
func (rb *Rebuilder) publish(g *generation) {
	if g.live == nil {
		rb.latest = *g.latest
	} else {
		_ = g.latest.walk(nil, func(id uint64, e latestRec) error {
			if e.staged {
				cur, _ := rb.latest.get(id)
				e = commitRecord(cur, record{typeID: e.typeID, kind: e.kind, payload: e.payload})
			}
			rb.latest.put(id, e)
			return nil
		})
	}
	rb.maxID, rb.seen = g.maxID, g.seen
}

// ApplyRun folds a sequence of checkpoint bodies into the rebuilder as one
// atomic unit: either every body applies, or the rebuilder is left exactly as
// it was. It is the replay primitive behind stablelog's rewind — a chain read
// from a retained log must never leave the rebuilder half-rewound when a
// later body turns out to be unreadable or corrupt.
//
// The run is staged in a generation of its own and published only after the
// last body applies. A run that begins with a Full body builds its
// generation from empty and swaps it in, since a full checkpoint resets the
// state anyway. A run that begins with an incremental reads through to the
// current state and costs only the objects it records, whatever the size of
// that state. An empty run is a no-op.
func (rb *Rebuilder) ApplyRun(bodies [][]byte) error {
	var g generation
	for i, b := range bodies {
		d := wire.NewDecoder(b)
		h, err := parseBodyHeader(d)
		if err == nil {
			err = rb.replay(&g, d, h)
		}
		if err != nil {
			rb.staged.clear() // the run's entries alias its bodies
			return fmt.Errorf("apply body %d of %d: %w", i+1, len(bodies), err)
		}
	}
	if g.latest != nil {
		rb.publish(&g)
	}
	rb.staged.clear()
	return nil
}

// Objects returns the number of distinct object ids currently known.
func (rb *Rebuilder) Objects() int { return rb.latest.n }

// MaxID returns the largest object id seen.
func (rb *Rebuilder) MaxID() uint64 { return rb.maxID }

// Build materializes every known object: it creates a shell per id via the
// registered factories, then restores each shell's state, resolving child
// references through a Resolver. If d is non-nil it is advanced past the
// largest restored id. Replay accepts any id, but an Info holds ids below
// 2^48 only, so Build refuses a larger one with ErrBadBody before any
// factory runs.
//
// Objects are created and restored in ascending id order — never in Go map
// order — so a given set of bodies always builds (or fails) the same way.
// Both passes walk the id table as it stands: its dense part in index order,
// then its overflow ids, sorted; nothing else is sorted or copied. Every
// Restore reads through one decoder, reset per record.
//
// The returned map is keyed by object id.
func (rb *Rebuilder) Build(d *Domain) (map[uint64]Restorable, error) {
	if rb.maxID >= idLimit {
		return nil, fmt.Errorf("%w: object id %d is not below 2^48", ErrBadBody, rb.maxID)
	}
	t := &rb.latest
	over := t.overflowIDs()
	objs := make(map[uint64]Restorable, t.n)
	built := make([]Restorable, 0, t.n)
	res := &Resolver{objects: objs}
	if over == nil {
		res.dense = make([]Restorable, t.dense)
	}
	err := t.walk(over, func(id uint64, rec latestRec) error {
		f, ok := rb.reg.factory(rec.typeID)
		if !ok {
			return fmt.Errorf("%w: %d (object %d)", ErrUnknownType, rec.typeID, id)
		}
		o := f(id)
		if got := o.CheckpointInfo().ID(); got != id {
			return fmt.Errorf("%w: factory for %q built object with id %d, want %d",
				ErrTypeConflict, rb.reg.Name(rec.typeID), got, id)
		}
		built = append(built, o)
		objs[id] = o
		if res.dense != nil {
			res.dense[id] = o
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dec wire.Decoder
	next := built
	err = t.walk(over, func(id uint64, rec latestRec) error {
		dec = *wire.NewDecoder(rec.payload)
		err := next[0].Restore(&dec, res)
		next = next[1:]
		if err == nil {
			err = dec.Err()
		}
		if err != nil {
			return fmt.Errorf("restore object %d (%s): %w", id, rb.reg.Name(rec.typeID), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if d != nil {
		d.advance(rb.maxID)
	}
	return objs, nil
}

// Resolver resolves child ids to rebuilt objects during Restore. Build's
// Resolver indexes a slice by id when every id is dense, and probes the map
// otherwise.
type Resolver struct {
	objects map[uint64]Restorable
	dense   []Restorable // by id, when non-nil: every object Build made
}

// Lookup returns the object with the given id. Looking up NilID returns
// (nil, nil): a recorded nil child reference.
func (r *Resolver) Lookup(id uint64) (Restorable, error) {
	if id == NilID {
		return nil, nil
	}
	var o Restorable
	if r.dense != nil {
		if id < uint64(len(r.dense)) {
			o = r.dense[id]
		}
	} else {
		o = r.objects[id]
	}
	if o == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	return o, nil
}

// ResolveAs looks up id and asserts the result to T. A nil id yields the
// zero T (a typed nil pointer) and no error.
func ResolveAs[T Restorable](r *Resolver, id uint64) (T, error) {
	var zero T
	o, err := r.Lookup(id)
	if err != nil || o == nil {
		return zero, err
	}
	v, ok := o.(T)
	if !ok {
		return zero, fmt.Errorf("%w: object %d has type %T", ErrTypeConflict, id, o)
	}
	return v, nil
}

// BodyInfo describes a parsed checkpoint body header; it is exposed for
// inspection tools.
type BodyInfo struct {
	Version byte
	Mode    Mode
	Epoch   uint64
	Records int
	Deltas  int // records of kind wire.KindDelta (version-2 bodies only)
	Bytes   int
}

// InspectBodyKinds parses a body and returns its header information and a
// callback-driven record walk. fn may be nil to collect counts only. The
// callback receives each record's kind (wire.KindFull or wire.KindDelta);
// for a delta record payload is the raw delta op stream, not the
// materialized payload, and wire.DeltaLen recovers the materialized size.
func InspectBodyKinds(body []byte, fn func(id uint64, t TypeID, kind byte, payload []byte) error) (BodyInfo, error) {
	d := wire.NewDecoder(body)
	h, err := parseBodyHeader(d)
	if err != nil {
		return BodyInfo{}, err
	}
	info := BodyInfo{Version: h.version, Mode: h.mode, Epoch: h.epoch, Bytes: len(body)}
	for {
		rec, ok, err := nextRecord(d, h.version == bodyVersion2)
		if err != nil {
			return info, err
		}
		if !ok {
			return info, nil
		}
		info.Records++
		if rec.kind == wire.KindDelta {
			info.Deltas++
		}
		if fn != nil {
			if err := fn(rec.id, rec.typeID, rec.kind, rec.payload); err != nil {
				return info, err
			}
		}
	}
}

package ckpt

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ickpt/wire"
)

// latestRec is the most recent payload known for one object id. owned marks
// a rebuilder-owned buffer (version-2 records are materialized into owned
// storage rather than aliasing the body), which a later same-size record may
// reuse in place instead of allocating.
type latestRec struct {
	typeID  TypeID
	payload []byte
	owned   bool
}

// stagedRec is one validated record on its way into latest. payload aliases
// the body (the delta bytes, for kind wire.KindDelta); base is the resolved
// diff base a delta was validated against.
type stagedRec struct {
	typeID  TypeID
	kind    byte
	payload []byte
	base    []byte
}

// Rebuilder reconstructs object state from a sequence of checkpoint bodies:
// one base full checkpoint followed by any number of incremental bodies, in
// the order they were taken. It keeps, per object id, the most recent record
// payload — materializing delta records (wire.KindDelta) against it as they
// arrive; Build then materializes the object graph through a Registry.
//
// Rebuilder is not safe for concurrent use.
type Rebuilder struct {
	reg    *Registry
	latest map[uint64]latestRec
	bodies [][]byte // retained so version-1 record payloads stay valid
	maxID  uint64
	seen   int // bodies applied

	// staged is an incremental Apply's validation-pass scratch, retained
	// across calls so the steady-state re-apply loop (a replica following a
	// stream) stays allocation-free. Full bodies and runs never touch it.
	staged map[uint64]stagedRec
}

// NewRebuilder returns a Rebuilder resolving types through reg.
func NewRebuilder(reg *Registry) *Rebuilder {
	return &Rebuilder{
		reg:    reg,
		latest: make(map[uint64]latestRec),
	}
}

// Apply folds one checkpoint body into the rebuilder. A version-1 body is
// retained (not copied) — its record payloads are aliased and it must not be
// mutated afterwards. Version-2 (delta-enabled) bodies are not retained:
// every record, full or delta, is materialized into rebuilder-owned storage,
// reusing the object's previous buffer when the new payload fits.
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
// A Full body is a one-body run (see ApplyRun): built beside the live state
// and swapped in. An incremental body is staged: every record is decoded and
// validated before the first one is committed.
func (rb *Rebuilder) Apply(body []byte) error {
	d := wire.NewDecoder(body)
	h, err := parseBodyHeader(d)
	if err != nil {
		return fmt.Errorf("apply body: %w", err)
	}
	if h.mode == Full {
		return rb.ApplyRun([][]byte{body})
	}
	if rb.seen == 0 {
		return errFirstNotFull
	}
	hasKind := h.version == bodyVersion2
	// Decode and validate every record before touching any state. Deltas
	// are fully validated here — structure, base length, base hash — so the
	// commit loop below cannot fail, which is what makes its in-place
	// materialization safe.
	if rb.staged == nil {
		rb.staged = make(map[uint64]stagedRec)
	}
	staged := rb.staged
	defer clear(staged) // drop body aliases either way
	for {
		rec, ok, err := nextRecord(d, hasKind)
		if err != nil {
			return fmt.Errorf("apply body: %w", err)
		}
		if !ok {
			break
		}
		// What the object holds just before this record: an earlier record
		// of this body, else the live generation's.
		prev, found := staged[rec.id]
		if found {
			if rec.kind == wire.KindDelta && prev.kind == wire.KindDelta {
				// Two deltas for one object in one body: materialize the
				// first so the second has bytes to validate against.
				buf := make([]byte, len(prev.base))
				wire.ApplyValidatedDelta(buf, prev.base, prev.payload)
				prev.payload = buf
			}
		} else if cur, ok := rb.latest[rec.id]; ok {
			prev, found = stagedRec{typeID: cur.typeID, payload: cur.payload}, true
		}
		if err := rb.validate(h.mode, rec, prev.typeID, found); err != nil {
			return err
		}
		if rec.kind == wire.KindDelta {
			if err := checkDelta(rec, prev.payload, wire.DeltaBaseHash(prev.payload)); err != nil {
				return err
			}
		}
		staged[rec.id] = stagedRec{typeID: rec.typeID, kind: rec.kind, payload: rec.payload, base: prev.payload}
	}
	if !hasKind {
		rb.bodies = append(rb.bodies, body)
	}
	for id, st := range staged {
		rb.latest[id] = commitRecord(rb.latest[id], st, hasKind)
		rb.maxID = max(rb.maxID, id)
	}
	rb.seen++
	return nil
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
// have not been fingerprinted yet. A base hash is one serial multiply chain
// over the whole payload, bound by multiply latency rather than by loads, so
// checking the records one at a time would leave the core mostly idle on a
// chain of 16 KB bases; drain runs four chains side by side
// (wire.DeltaBaseHash4) instead. The batched records name distinct objects —
// a record for an object already in the batch drains it first (settle) — so
// committing one never changes another's base. A batch never outlives its
// body: a body's failure is reported against that body.
type deltaBatch struct {
	n    int
	recs [hashLanes]record
	base [hashLanes][]byte
}

// settle drains the batch into commit if a record for id waits in it, so
// that the record about to be read sees what its object holds.
func (b *deltaBatch) settle(id uint64, commit func(rec record, base []byte)) error {
	for i := range b.n {
		if b.recs[i].id == id {
			return b.drain(commit)
		}
	}
	return nil
}

// add batches a delta record against base and drains the batch into commit
// once it is full.
func (b *deltaBatch) add(rec record, base []byte, commit func(rec record, base []byte)) error {
	b.recs[b.n], b.base[b.n] = rec, base
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
func (b *deltaBatch) drain(commit func(rec record, base []byte)) error {
	if b.n == 0 {
		return nil
	}
	var h [hashLanes]uint32
	h[0], h[1], h[2], h[3] = wire.DeltaBaseHash4(b.base[0], b.base[1], b.base[2], b.base[3])
	var err error
	for i := range b.n {
		if err = checkDelta(b.recs[i], b.base[i], h[i]); err != nil {
			break
		}
		commit(b.recs[i], b.base[i])
	}
	*b = deltaBatch{} // unused lanes must be nil: DeltaBaseHash4 hashes every lane
	return err
}

// commitRecord turns a validated record into its object's latest payload;
// cur is what the object holds now (the zero value if nothing). Version-1
// records alias the retained body; version-2 records are materialized into
// owned storage, reusing the object's existing owned buffer whenever the new
// payload fits its capacity — the steady-state same-size re-apply allocates
// nothing.
func commitRecord(cur latestRec, st stagedRec, hasKind bool) latestRec {
	if !hasKind {
		return latestRec{typeID: st.typeID, payload: st.payload}
	}
	n := len(st.payload)
	if st.kind == wire.KindDelta {
		n = len(st.base)
	}
	var dst []byte
	if cur.owned && cap(cur.payload) >= n {
		dst = cur.payload[:n]
	} else {
		dst = make([]byte, n)
	}
	switch {
	case st.kind != wire.KindDelta:
		copy(dst, st.payload)
	case n > 0:
		// dst may be st.base itself (the common consecutive-epoch case);
		// in-place application is safe because aligned deltas only overwrite
		// literal runs.
		wire.ApplyValidatedDelta(dst, st.base, st.payload)
	}
	return latestRec{typeID: st.typeID, payload: dst, owned: true}
}

// scratch returns the rebuilder a run is replayed into beside rb, its map
// presized from the state it will replace. A run that extends the current
// state rather than replacing it starts from a copy; the copies are marked
// un-owned — the scratch must never materialize a delta in place over a
// buffer rb still references.
func (rb *Rebuilder) scratch(extend bool) *Rebuilder {
	next := &Rebuilder{reg: rb.reg, latest: make(map[uint64]latestRec, len(rb.latest)), staged: rb.staged}
	if extend {
		for id, rec := range rb.latest {
			rec.owned = false
			next.latest[id] = rec
		}
		next.bodies = append([][]byte(nil), rb.bodies...)
		next.maxID, next.seen = rb.maxID, rb.seen
	}
	return next
}

// replay folds one body, header already parsed off d, into a scratch
// rebuilder: each record is decoded, validated and committed straight into
// latest — a delta once its batch drains. There is no staging because there
// is nothing to protect — a scratch that fails is thrown away — so the cost
// is this body's records and nothing else.
func (rb *Rebuilder) replay(d *wire.Decoder, h bodyHeader, body []byte) error {
	if h.mode == Full {
		clear(rb.latest)
		rb.bodies = rb.bodies[:0]
		rb.maxID = 0
	} else if rb.seen == 0 {
		return errFirstNotFull
	}
	hasKind := h.version == bodyVersion2
	if !hasKind {
		rb.bodies = append(rb.bodies, body)
	}
	commit := func(rec record, base []byte) {
		st := stagedRec{typeID: rec.typeID, kind: rec.kind, payload: rec.payload, base: base}
		rb.latest[rec.id] = commitRecord(rb.latest[rec.id], st, hasKind)
		rb.maxID = max(rb.maxID, rec.id)
	}
	// A failure ends the walk; the deltas still batched come before it in
	// the body, so theirs is reported first.
	var batch deltaBatch
	for {
		rec, ok, err := nextRecord(d, hasKind)
		if err != nil {
			return cmp.Or(batch.drain(commit), err)
		}
		if !ok {
			break
		}
		if err := batch.settle(rec.id, commit); err != nil {
			return err
		}
		cur, found := rb.latest[rec.id]
		if err := rb.validate(h.mode, rec, cur.typeID, found); err != nil {
			return cmp.Or(batch.drain(commit), err)
		}
		if rec.kind == wire.KindDelta {
			if err := batch.add(rec, cur.payload, commit); err != nil {
				return err
			}
			continue
		}
		rb.latest[rec.id] = commitRecord(cur, stagedRec{typeID: rec.typeID, kind: rec.kind, payload: rec.payload}, hasKind)
		rb.maxID = max(rb.maxID, rec.id)
	}
	if err := batch.drain(commit); err != nil {
		return err
	}
	rb.seen++
	return nil
}

// ApplyRun folds a sequence of checkpoint bodies into the rebuilder as one
// atomic unit: either every body applies, or the rebuilder is left exactly as
// it was. It is the replay primitive behind stablelog's rewind — a chain read
// from a retained log must never leave the rebuilder half-rewound when a
// later body turns out to be unreadable or corrupt.
//
// The run is what is staged: its records are validated and committed one by
// one into a scratch generation (starting empty when the first body is Full,
// since a full checkpoint resets the state anyway; from a copy of the current
// state otherwise), which is swapped in only after the last body applies. An
// empty run is a no-op.
func (rb *Rebuilder) ApplyRun(bodies [][]byte) error {
	var next *Rebuilder
	for i, b := range bodies {
		d := wire.NewDecoder(b)
		h, err := parseBodyHeader(d)
		if err == nil {
			if next == nil {
				next = rb.scratch(h.mode != Full)
			}
			err = next.replay(d, h, b)
		}
		if err != nil {
			return fmt.Errorf("apply body %d of %d: %w", i+1, len(bodies), err)
		}
	}
	if next != nil {
		*rb = *next
	}
	return nil
}

// Objects returns the number of distinct object ids currently known.
func (rb *Rebuilder) Objects() int { return len(rb.latest) }

// MaxID returns the largest object id seen, for Domain.Advance.
func (rb *Rebuilder) MaxID() uint64 { return rb.maxID }

// Build materializes every known object: it creates a shell per id via the
// registered factories, then restores each shell's state, resolving child
// references through a Resolver. If d is non-nil it is advanced past the
// largest restored id.
//
// Objects are created and restored in ascending id order — never in Go map
// order — so a given set of bodies always builds (or fails) the same way.
//
// The returned map is keyed by object id.
func (rb *Rebuilder) Build(d *Domain) (map[uint64]Restorable, error) {
	// One snapshot of the state, walked in id order by both passes. The sort
	// moves 16-byte keys, not the records.
	type key struct {
		id uint64
		at int // index into recs
	}
	keys := make([]key, 0, len(rb.latest))
	recs := make([]latestRec, 0, len(rb.latest))
	for id, rec := range rb.latest {
		keys = append(keys, key{id, len(recs)})
		recs = append(recs, rec)
	}
	slices.SortFunc(keys, func(a, b key) int { return cmp.Compare(a.id, b.id) })
	built := make([]Restorable, len(recs))
	objs := make(map[uint64]Restorable, len(recs))
	for i, k := range keys {
		rec := recs[k.at]
		f, ok := rb.reg.factory(rec.typeID)
		if !ok {
			return nil, fmt.Errorf("%w: %d (object %d)", ErrUnknownType, rec.typeID, k.id)
		}
		o := f(k.id)
		if got := o.CheckpointInfo().ID(); got != k.id {
			return nil, fmt.Errorf("%w: factory for %q built object with id %d, want %d",
				ErrTypeConflict, rb.reg.Name(rec.typeID), got, k.id)
		}
		built[i], objs[k.id] = o, o
	}
	res := &Resolver{objects: objs}
	for i, k := range keys {
		rec := recs[k.at]
		dec := wire.NewDecoder(rec.payload)
		err := built[i].Restore(dec, res)
		if err == nil {
			err = dec.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("restore object %d (%s): %w", k.id, rb.reg.Name(rec.typeID), err)
		}
	}
	if d != nil {
		d.Advance(rb.maxID)
	}
	return objs, nil
}

// Resolver resolves child ids to rebuilt objects during Restore.
type Resolver struct {
	objects map[uint64]Restorable
}

// Lookup returns the object with the given id. Looking up NilID returns
// (nil, nil): a recorded nil child reference.
func (r *Resolver) Lookup(id uint64) (Restorable, error) {
	if id == NilID {
		return nil, nil
	}
	o, ok := r.objects[id]
	if !ok {
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

// InspectBody parses a body and returns its header information and a
// callback-driven record walk. fn may be nil to collect counts only. For a
// delta record the callback receives the raw delta bytes, not the
// materialized payload; use InspectBodyKinds to tell the two apart.
func InspectBody(body []byte, fn func(id uint64, t TypeID, payload []byte) error) (BodyInfo, error) {
	if fn == nil {
		return InspectBodyKinds(body, nil)
	}
	return InspectBodyKinds(body, func(id uint64, t TypeID, _ byte, payload []byte) error {
		return fn(id, t, payload)
	})
}

// InspectBodyKinds is InspectBody with the record kind (wire.KindFull or
// wire.KindDelta) exposed to the callback. For kind wire.KindDelta, payload
// is the delta op stream; wire.DeltaLen recovers the materialized size.
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

// CheckDeltaCoherence verifies that every delta record in a run of bodies
// has an in-run base: an earlier record for the same object, with nothing
// but incrementals between them. Full bodies reset the known set (and may
// not carry deltas at all). It is cheap — structure only, no hash checks or
// materialization — and is run by stablelog replay and ckptinspect -verify
// before Rebuilder.Apply commits to a chain, so a truncated or mis-anchored
// run fails with ErrDeltaBase up front instead of mid-rebuild.
//
// Runs with no version-2 body are vacuously coherent and return nil without
// decoding records.
func CheckDeltaCoherence(bodies [][]byte) error {
	hasV2 := false
	for _, b := range bodies {
		if len(b) > 0 && b[0] == bodyVersion2 {
			hasV2 = true
			break
		}
	}
	if !hasV2 {
		return nil
	}
	have := make(map[uint64]struct{})
	for i, body := range bodies {
		d := wire.NewDecoder(body)
		h, err := parseBodyHeader(d)
		if err != nil {
			return fmt.Errorf("body %d: %w", i+1, err)
		}
		if h.mode == Full {
			clear(have)
		}
		for {
			rec, ok, err := nextRecord(d, h.version == bodyVersion2)
			if err != nil {
				return fmt.Errorf("body %d: %w", i+1, err)
			}
			if !ok {
				break
			}
			if rec.kind == wire.KindDelta {
				if h.mode == Full {
					return fmt.Errorf("body %d: %w: object %d: delta record in a full checkpoint", i+1, ErrDeltaBase, rec.id)
				}
				if _, ok := have[rec.id]; !ok {
					return fmt.Errorf("body %d: %w: object %d has no earlier payload in the run", i+1, ErrDeltaBase, rec.id)
				}
			}
			have[rec.id] = struct{}{}
		}
	}
	return nil
}

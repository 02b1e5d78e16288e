package ckpt_test

// ApplyRun stages a run in a generation of its own and publishes it at the
// end; Apply is a one-body run. The oracle both are held to here is a naive
// model of the same rules — clone the whole state per run, apply each delta
// with wire.ApplyDelta, stop at the first bad record and keep the clone only
// if none was bad — over seeded random runs that mix body versions, repeat
// ids, stack deltas, restart mid-run, extend the live state and break in
// every way the rebuilder has an error class for.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/synth"
	"ickpt/wire"
)

// errClass names the documented class of a rebuilder error, or the root
// cause's text for anything else (wire-level truncation).
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, class := range []error{ckpt.ErrTypeConflict, ckpt.ErrDeltaBase, ckpt.ErrBadBody} {
		if errors.Is(err, class) {
			return class.Error()
		}
	}
	for next := errors.Unwrap(err); next != nil; next = errors.Unwrap(err) {
		err = next
	}
	return err.Error()
}

// runGen writes random but well-formed bodies against a model of what a
// rebuilder that applied them all would hold, so it can produce deltas that
// really apply — and, on request, records that really do not.
type runGen struct {
	rng   *rand.Rand
	ids   []uint64          // the id space, few ids so that bodies repeat them
	model map[uint64][]byte // id → payload after the bodies written so far
	epoch uint64
	hot   uint64 // when set, every version-2 incremental deltas it once or twice first
}

const genIDs = 10 // ids 1..genIDs in a dense space; genIDs+1 is in no space

// sparseIDs mixes dense ids with ids the rebuilder's id table keeps in its
// overflow map: 1500 and 2047 lie past the density bound of a table of a few
// entries, until 1025 grows its pages to cover them and they move in; the
// ids from 2^40 on stay in the map.
var sparseIDs = []uint64{1, 2, 3, 4, 5, 6, 1000, 1025, 1500, 2047, 1<<40 + 1, 1<<40 + 2, 1<<63 - 1}

// newRunGen returns a generator over ids 1..genIDs, or over sparseIDs.
func newRunGen(rng *rand.Rand, sparse bool) *runGen {
	g := &runGen{rng: rng, model: make(map[uint64][]byte), ids: sparseIDs}
	if !sparse {
		g.ids = make([]uint64, genIDs)
		for i := range g.ids {
			g.ids[i] = uint64(i + 1)
		}
	}
	return g
}

func genType(id uint64) uint64 { return id%3 + 1 }

// defect is one way to make a body invalid at a known record.
type defect int

const (
	none defect = iota
	nilID
	typeConflict
	baselessDelta // a delta for an id the run has never carried
	deltaInFull
	wrongBase // a delta computed against bytes the rebuilder does not hold
	numDefects
)

func (g *runGen) payload(n int) []byte {
	p := make([]byte, n)
	g.rng.Read(p)
	return p
}

// body writes one body of version v (1 or 2). A Full forgets the model, as
// the rebuilder will. bad plants one defective record after the good ones.
func (g *runGen) body(v byte, mode ckpt.Mode, bad defect) []byte {
	g.epoch++
	e := wire.NewEncoder(256)
	e.Byte(v)
	e.Byte(byte(mode))
	e.Uvarint(g.epoch)
	if mode == ckpt.Full {
		clear(g.model)
	}
	record := func(id, typ uint64, kind byte, payload []byte) {
		e.Uvarint(id)
		e.Uvarint(typ)
		if v == 2 {
			e.Byte(kind)
		}
		e.Uvarint(uint64(len(payload)))
		e.Raw(payload)
	}
	// delta returns next encoded against base, or nil when it does not pay.
	delta := func(base, next []byte) []byte {
		de := wire.NewEncoder(len(next))
		if !wire.AppendDeltaHashed(de, base, wire.DeltaBaseHash(base), next, len(next)) {
			return nil
		}
		return de.Bytes()
	}
	if prev, ok := g.model[g.hot]; ok && v == 2 && mode == ckpt.Incremental {
		for k := 1 + g.rng.Intn(2); k > 0; k-- {
			next := append([]byte(nil), prev...)
			next[g.rng.Intn(len(next))] ^= byte(1 + g.rng.Intn(255))
			if d := delta(prev, next); d != nil {
				record(g.hot, genType(g.hot), wire.KindDelta, d)
				g.model[g.hot], prev = next, next
			}
		}
	}
	for n := 1 + g.rng.Intn(8); n > 0; n-- {
		id := g.ids[g.rng.Intn(len(g.ids))] // repeats within a body are wanted
		prev, known := g.model[id]
		if v == 2 && mode == ckpt.Incremental && known && g.rng.Intn(3) > 0 {
			// Same length, a few bytes changed: a second delta for the same
			// id in this body stacks on the first.
			next := append([]byte(nil), prev...)
			for k := 1 + g.rng.Intn(3); k > 0; k-- {
				next[g.rng.Intn(len(next))] ^= byte(1 + g.rng.Intn(255))
			}
			if d := delta(prev, next); d != nil {
				record(id, genType(id), wire.KindDelta, d)
				g.model[id] = next
				continue
			}
		}
		p := g.payload(48 + 16*g.rng.Intn(4))
		record(id, genType(id), wire.KindFull, p)
		g.model[id] = p
	}
	anyKnown := func() (uint64, []byte, bool) {
		for _, id := range g.ids {
			if p, ok := g.model[id]; ok {
				return id, p, true
			}
		}
		return 0, nil, false
	}
	switch id, prev, ok := anyKnown(); {
	case bad == nilID:
		record(0, 1, wire.KindFull, g.payload(8))
	case bad == typeConflict && ok:
		record(id, genType(id)+1, wire.KindFull, g.payload(8))
	case bad == baselessDelta && v == 2 && mode == ckpt.Incremental:
		p := g.payload(64)
		q := append([]byte(nil), p...)
		q[3] ^= 1
		record(genIDs+1, 1, wire.KindDelta, delta(p, q))
	case bad == deltaInFull && v == 2 && mode == ckpt.Full && ok:
		q := append([]byte(nil), prev...)
		q[0] ^= 1
		record(id, genType(id), wire.KindDelta, delta(prev, q))
	case bad == wrongBase && v == 2 && mode == ckpt.Incremental && ok:
		other := append([]byte(nil), prev...)
		other[len(other)-1] ^= 1
		q := append([]byte(nil), other...)
		q[0] ^= 1
		record(id, genType(id), wire.KindDelta, delta(other, q))
	}
	return e.Bytes()
}

// run writes n bodies: a Full first (unless extend), a second Full mid-run
// now and then, versions mixed, and the defect planted in body badAt. An
// extending run opens with two version-2 incrementals, and deltas one object
// of the state it extends in consecutive bodies, and at times twice in one.
func (g *runGen) run(n int, extend bool, badAt int, bad defect) [][]byte {
	if extend {
		var known []uint64
		for _, id := range g.ids {
			if _, ok := g.model[id]; ok {
				known = append(known, id)
			}
		}
		g.hot = known[g.rng.Intn(len(known))]
		defer func() { g.hot = 0 }()
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		mode, v := ckpt.Incremental, byte(1+g.rng.Intn(2))
		switch {
		case extend && i < 2:
			v = 2
		case i == 0 || g.rng.Intn(6) == 0:
			mode = ckpt.Full
		}
		d := none
		if i == badAt {
			d = bad
		}
		bodies[i] = g.body(v, mode, d)
	}
	return bodies
}

// modelState is the naive model's rebuilder: its objects, largest id, and
// whether a full checkpoint anchors it.
type modelState struct {
	objs     map[uint64]ckpt.ModelObject
	maxID    uint64
	anchored bool
}

func (s modelState) digest() string { return ckpt.DigestOf(s.objs, s.maxID, s.anchored) }

// modelRun applies run to a clone of s, one record at a time, and returns
// the clone — or s itself and the first bad record's error.
func modelRun(s modelState, run [][]byte) (modelState, error) {
	next := modelState{objs: maps.Clone(s.objs), maxID: s.maxID, anchored: s.anchored}
	for _, body := range run {
		d := wire.NewDecoder(body)
		version, mode := d.Byte(), ckpt.Mode(d.Byte())
		d.Uvarint()
		switch {
		case d.Err() != nil:
			return s, d.Err()
		case version != 1 && version != 2, mode != ckpt.Full && mode != ckpt.Incremental:
			return s, ckpt.ErrBadBody
		case mode == ckpt.Full:
			next.objs, next.maxID, next.anchored = map[uint64]ckpt.ModelObject{}, 0, true
		case !next.anchored:
			return s, ckpt.ErrBadBody
		}
		_, err := ckpt.InspectBodyKinds(body, func(id uint64, t ckpt.TypeID, kind byte, payload []byte) error {
			prev, found := next.objs[id]
			switch {
			case id == ckpt.NilID:
				return ckpt.ErrBadBody
			case found && prev.Type != t:
				return ckpt.ErrTypeConflict
			case kind == wire.KindDelta && (mode == ckpt.Full || !found):
				return ckpt.ErrDeltaBase
			}
			p := append([]byte(nil), payload...)
			if kind == wire.KindDelta {
				var err error
				if p, err = wire.ApplyDelta(prev.Payload, payload); errors.Is(err, wire.ErrBaseMismatch) {
					return ckpt.ErrDeltaBase
				} else if err != nil {
					return ckpt.ErrBadBody
				}
			}
			next.objs[id] = ckpt.ModelObject{Type: t, Payload: p}
			next.maxID = max(next.maxID, id)
			return nil
		})
		if err != nil {
			return s, err
		}
	}
	return next, nil
}

// checkRunAgainstModel is the oracle. A rebuilder and the model take the
// same prelude; then the rebuilder takes the run as one ApplyRun, and a
// second one, a replica following the stream, one Apply per body until the
// first fails. Each must end where the model does, with its error class.
func checkRunAgainstModel(t *testing.T, label string, prelude, run [][]byte) {
	t.Helper()
	rb, follow := ckpt.NewRebuilder(ckpt.NewRegistry()), ckpt.NewRebuilder(ckpt.NewRegistry())
	start, err := modelRun(modelState{objs: map[uint64]ckpt.ModelObject{}}, prelude)
	if err != nil {
		t.Fatalf("%s: prelude: model: %v", label, err)
	}
	if err := rb.ApplyRun(prelude); err != nil {
		t.Fatalf("%s: prelude as a run: %v", label, err)
	}
	if err := follow.ApplyRun(prelude); err != nil {
		t.Fatalf("%s: prelude as a run: %v", label, err)
	}
	if got, want := rb.Digest(), start.digest(); got != want {
		t.Fatalf("%s: prelude: rebuilder %s, model %s", label, got, want)
	}

	want, wantErr := modelRun(start, run)
	got := rb.ApplyRun(run)
	if errClass(got) != errClass(wantErr) {
		t.Fatalf("%s: ApplyRun = %v, model %v", label, got, wantErr)
	}
	if a, b := rb.Digest(), want.digest(); a != b {
		t.Fatalf("%s: ApplyRun (%v) left %s, model %s", label, got, a, b)
	}

	at := start
	for i, body := range run {
		next, wantErr := modelRun(at, [][]byte{body})
		got := follow.Apply(body)
		if errClass(got) != errClass(wantErr) {
			t.Fatalf("%s: Apply of body %d = %v, model %v", label, i, got, wantErr)
		}
		if a, b := follow.Digest(), next.digest(); a != b {
			t.Fatalf("%s: Apply of body %d (%v) left %s, model %s", label, i, got, a, b)
		}
		if wantErr != nil {
			break
		}
		at = next
	}
}

// TestApplyRunMatchesSequentialApply holds ApplyRun, and Apply body by body,
// to the model over seeded runs, each valid run also torn and garbled at
// every position. Seeds past 60 draw their ids from sparseIDs.
func TestApplyRunMatchesSequentialApply(t *testing.T) {
	for seed := int64(1); seed <= 90; seed++ {
		for bad := none; bad < numDefects; bad++ {
			rng := rand.New(rand.NewSource(seed))
			g := newRunGen(rng, seed > 60)
			var prelude [][]byte
			extend := seed%3 == 0 // every third run extends a prelude's state
			if extend || seed%3 == 1 {
				prelude = g.run(1+rng.Intn(3), false, -1, none)
			}
			n := 1 + rng.Intn(5)
			if extend {
				n++
			}
			run := g.run(n, extend, rng.Intn(n), bad)
			label := fmt.Sprintf("seed %d defect %d", seed, bad)
			checkRunAgainstModel(t, label, prelude, run)
			if bad != none {
				continue
			}
			// The valid run again, torn and garbled at every position.
			for at := range run {
				torn := append([][]byte(nil), run...)
				torn[at] = run[at][:rng.Intn(len(run[at]))]
				checkRunAgainstModel(t, fmt.Sprintf("%s torn at %d", label, at), prelude, torn)

				garbled := append([][]byte(nil), run...)
				garbled[at] = append([]byte(nil), run[at]...)
				garbled[at][rng.Intn(len(run[at]))] ^= byte(1 + rng.Intn(255))
				checkRunAgainstModel(t, fmt.Sprintf("%s garbled at %d", label, at), prelude, garbled)
			}
		}
	}
}

// TestApplyRunDefectsAreClassified keeps the oracle honest: each planted
// defect must actually be hit and fail with its documented class, so "both
// sides agree" above cannot mean "both sides applied everything".
func TestApplyRunDefectsAreClassified(t *testing.T) {
	want := map[defect]error{
		nilID:         ckpt.ErrBadBody,
		typeConflict:  ckpt.ErrTypeConflict,
		baselessDelta: ckpt.ErrDeltaBase,
		deltaInFull:   ckpt.ErrDeltaBase,
		wrongBase:     ckpt.ErrDeltaBase,
	}
	for bad, class := range want {
		g := newRunGen(rand.New(rand.NewSource(int64(bad))), false)
		full := g.body(2, ckpt.Full, none)
		mode := ckpt.Incremental
		if bad == deltaInFull {
			mode = ckpt.Full
		}
		rb := ckpt.NewRebuilder(ckpt.NewRegistry())
		if err := rb.ApplyRun([][]byte{full, g.body(2, mode, bad)}); !errors.Is(err, class) {
			t.Errorf("defect %d: ApplyRun = %v, want %v", bad, err, class)
		}
		if rb.Objects() != 0 {
			t.Errorf("defect %d: failed run left %d objects", bad, rb.Objects())
		}
	}
}

// TestApplyRunBadFirstHeaderFailsBeforeCopying: a run whose first header does
// not parse is rejected on the header alone, before any generation is set up
// beside the rebuilder's state.
func TestApplyRunBadFirstHeaderFailsBeforeCopying(t *testing.T) {
	const objects = 4096
	e := wire.NewEncoder(16 * objects)
	e.Byte(1)
	e.Byte(byte(ckpt.Full))
	e.Uvarint(1)
	for id := uint64(1); id <= objects; id++ {
		e.Uvarint(id)
		e.Uvarint(1)
		e.Uvarint(8)
		e.Uint64(id)
	}
	rb := ckpt.NewRebuilder(ckpt.NewRegistry())
	if err := rb.Apply(e.Bytes()); err != nil {
		t.Fatal(err)
	}
	before := rb.Digest()
	g := newRunGen(rand.New(rand.NewSource(1)), false)
	bad := [][]byte{{9, 9, 9}, g.body(1, ckpt.Incremental, none)}

	const calls = 16
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		if err := rb.ApplyRun(bad); !errors.Is(err, ckpt.ErrBadBody) {
			t.Fatalf("ApplyRun = %v, want ErrBadBody", err)
		}
	}
	runtime.ReadMemStats(&m1)
	// A copy of the state is at least 40 bytes an object; the wrapped error
	// is a few hundred bytes in all.
	if per := (m1.TotalAlloc - m0.TotalAlloc) / calls; per > 8*objects {
		t.Errorf("rejecting an unparsable first header allocated %d bytes with %d objects held", per, objects)
	}
	if after := rb.Digest(); after != before {
		t.Errorf("rebuilder changed: %s, was %s", after, before)
	}
}

// TestApplyRunReportsFirstFailingDelta pins what checking delta bases a batch
// at a time must not change. A body fails with its first failing record's
// error, in record order: whichever lane of a batch that record sits in,
// whether it fails the hash, the op stream or a check that needs no hash,
// and whatever fails after it. An incremental Apply, which checks one record
// at a time, is held to the same answers. A body whose records all fit
// applies to exactly what the records say. Bodies hold 1–9 records for seeded objects
// out of 6, so batches fill, drain part-full, and meet a second record for an
// object they hold; every third record is a full one, committed while deltas
// before it still wait.
func TestApplyRunReportsFirstFailingDelta(t *testing.T) {
	const objects, size = 6, 512
	rng := rand.New(rand.NewSource(5))
	payload := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	// edit returns p with a few bytes rewritten.
	edit := func(p []byte) []byte {
		q := append([]byte(nil), p...)
		for k := 0; k < 3; k++ {
			q[rng.Intn(len(q))] ^= byte(1 + rng.Intn(255))
		}
		return q
	}
	delta := func(base, next []byte) []byte {
		e := wire.NewEncoder(len(next))
		if !wire.AppendDeltaHashed(e, base, wire.DeltaBaseHash(base), next, len(next)) {
			t.Fatal("delta encode")
		}
		return e.Bytes()
	}
	start := make(map[uint64][]byte, objects)
	full := rawBody(ckpt.Full, 1, func(e *wire.Encoder) {
		for id := uint64(1); id <= objects; id++ {
			start[id] = payload(size)
			rawRec(e, id, wire.KindFull, start[id])
		}
	})

	type fault int
	const (
		none         fault = iota
		wrongBase          // encoded against bytes the object does not hold
		shortBase          // encoded for a base of another length
		trailingByte       // right base, op stream with a byte left over
		nilID              // fails before any hash is needed
		typeConflict       // likewise
		baseless           // a delta for an object the stream never carried
		torn               // the body ends inside this record
		numFaults
	)
	class := map[fault]error{
		wrongBase: ckpt.ErrDeltaBase, shortBase: ckpt.ErrDeltaBase, trailingByte: ckpt.ErrBadBody,
		nilID: ckpt.ErrBadBody, typeConflict: ckpt.ErrTypeConflict, baseless: ckpt.ErrDeltaBase,
		torn: wire.ErrTruncated,
	}
	const baselessID = 99

	// body writes a record for each of ids, planting faults[i] in place of
	// record i. It returns the body, the state it leaves when it applies, and
	// the object its first fault names (0 for none).
	body := func(ids []uint64, faults map[int]fault) ([]byte, map[uint64][]byte, uint64) {
		model := maps.Clone(start)
		var first uint64
		faulted := false
		cut := -1
		b := rawBody(ckpt.Incremental, 2, func(e *wire.Encoder) {
			for i, id := range ids {
				if cut >= 0 {
					break
				}
				f := faults[i]
				if f != none && !faulted {
					faulted = true
					switch f {
					case nilID, torn:
					case baseless:
						first = baselessID
					default:
						first = id
					}
				}
				next := edit(model[id])
				switch f {
				case none:
					if i%3 == 2 {
						next = payload(size)
						rawRec(e, id, wire.KindFull, next)
					} else {
						rawRec(e, id, wire.KindDelta, delta(model[id], next))
					}
					model[id] = next
				case wrongBase:
					other := edit(model[id])
					rawRec(e, id, wire.KindDelta, delta(other, edit(other)))
				case shortBase:
					short := model[id][:size/2]
					rawRec(e, id, wire.KindDelta, delta(short, edit(short)))
				case trailingByte:
					rawRec(e, id, wire.KindDelta, append(delta(model[id], next), 0))
				case nilID:
					rawRec(e, ckpt.NilID, wire.KindFull, next)
				case typeConflict:
					e.Uvarint(id)
					e.Uvarint(uint64(typeBlob) + 1)
					e.Byte(wire.KindFull)
					e.Uvarint(uint64(len(next)))
					e.Raw(next)
				case baseless:
					rawRec(e, baselessID, wire.KindDelta, delta(next, edit(next)))
				case torn:
					cut = e.Len() + 2
					rawRec(e, id, wire.KindDelta, delta(model[id], next))
				}
			}
		})
		if cut >= 0 {
			b = b[:cut]
		}
		return b, model, first
	}

	check := func(label string, inc []byte, want fault, wantState map[uint64][]byte, obj uint64) {
		t.Helper()
		seq := ckpt.NewRebuilder(ckpt.NewRegistry())
		if err := seq.Apply(full); err != nil {
			t.Fatal(err)
		}
		run := ckpt.NewRebuilder(ckpt.NewRegistry())
		for _, got := range []struct {
			how string
			err error
		}{{"Apply", seq.Apply(inc)}, {"ApplyRun", run.ApplyRun([][]byte{full, inc})}} {
			switch {
			case want == none && got.err != nil:
				t.Fatalf("%s: %s = %v", label, got.how, got.err)
			case want != none && !errors.Is(got.err, class[want]):
				t.Fatalf("%s: %s = %v, want %v", label, got.how, got.err, class[want])
			case obj != 0 && !strings.Contains(got.err.Error(), fmt.Sprintf("object %d", obj)):
				t.Fatalf("%s: %s = %v, want the failure of object %d", label, got.how, got.err, obj)
			}
		}
		if want != none {
			return
		}
		ref := ckpt.NewRebuilder(ckpt.NewRegistry())
		if err := ref.Apply(rawBody(ckpt.Full, 1, func(e *wire.Encoder) {
			for id := uint64(1); id <= objects; id++ {
				rawRec(e, id, wire.KindFull, wantState[id])
			}
		})); err != nil {
			t.Fatal(err)
		}
		if a, b, r := seq.Digest(), run.Digest(), ref.Digest(); a != r || b != r {
			t.Fatalf("%s: Apply left %s, ApplyRun %s, the records say %s", label, a, b, r)
		}
	}

	for n := 1; n <= 9; n++ {
		for variant := 0; variant < 4; variant++ {
			ids := make([]uint64, n)
			for i := range ids {
				ids[i] = uint64(1 + rng.Intn(objects))
			}
			inc, state, _ := body(ids, nil)
			check(fmt.Sprintf("ids %v", ids), inc, none, state, 0)
			for at := 0; at < n; at++ {
				for f := none + 1; f < numFaults; f++ {
					// Alone, then followed by a later fault of every other kind.
					for g := none; g < numFaults; g++ {
						if g == f || at+1 >= n && g != none {
							continue
						}
						faults := map[int]fault{at: f}
						if g != none {
							faults[at+1+rng.Intn(n-at-1)] = g
						}
						inc, _, obj := body(ids, faults)
						check(fmt.Sprintf("ids %v, fault %d at %d, then %d", ids, f, at, g), inc, f, nil, obj)
					}
				}
			}
		}
	}
}

// TestExtendingRunCostsItsRecords: a run that begins with an incremental
// reads through to the state it extends instead of copying it, so applying
// one incremental body allocates the same over the 104 000 objects of the
// synth-sparse replay chain as over the first 1 000 of them.
func TestExtendingRunCostsItsRecords(t *testing.T) {
	chain := sparseChain(t, 4000)
	small := wire.NewEncoder(64 << 10)
	small.Byte(1)
	small.Byte(byte(ckpt.Full))
	small.Uvarint(1)
	n := 0
	if _, err := ckpt.InspectBodyKinds(chain[0], func(id uint64, typ ckpt.TypeID, _ byte, payload []byte) error {
		if n++; n <= 1000 {
			small.Uvarint(id)
			small.Uvarint(uint64(typ))
			small.Uvarint(uint64(len(payload)))
			small.Raw(payload)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	inc := [][]byte{chain[1]}
	perRun := func(full []byte) uint64 {
		rb := ckpt.NewRebuilder(synth.Registry())
		if err := rb.Apply(full); err != nil {
			t.Fatal(err)
		}
		if err := rb.ApplyRun(inc); err != nil { // new ids settle in, the staged map grows
			t.Fatal(err)
		}
		const runs = 8
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			if err := rb.ApplyRun(inc); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	bigState, smallState := perRun(chain[0]), perRun(small.Bytes())
	t.Logf("one-body extending run: %d B over %d objects, %d B over 1000", bigState, n, smallState)
	if bigState > smallState+64 {
		t.Errorf("an extending run allocates %d B over %d objects, %d B over 1000: it scales with the state", bigState, n, smallState)
	}
}

package ckpt

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ickpt/wire"
)

// TestIDTableMatchesMap holds the id table to a map over seeded puts drawn
// from id spaces that mix dense ids, ids just past the density bound that a
// later growth takes in, and ids no growth reaches: every entry must be found,
// counted once and walked in ascending order, and the pages must follow the
// density rule.
func TestIDTableMatchesMap(t *testing.T) {
	spaces := map[string]func(*rand.Rand) uint64{
		"dense":  func(r *rand.Rand) uint64 { return uint64(r.Intn(3000)) },
		"edge":   func(r *rand.Rand) uint64 { return uint64(1000 + r.Intn(1200)) },
		"spread": func(r *rand.Rand) uint64 { return uint64(r.Intn(64)) << uint(r.Intn(24)) },
		"mixed": func(r *rand.Rand) uint64 {
			switch r.Intn(4) {
			case 0:
				return 1<<40 + uint64(r.Intn(8))
			case 1:
				return 1<<63 - 1 - uint64(r.Intn(2))
			}
			return uint64(r.Intn(2100))
		},
	}
	for name, draw := range spaces {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var tab idTable
			model := map[uint64]uint32{}
			peak := 0 // the pages outlive clear: they follow the most entries held
			for round := 0; round < 3; round++ {
				for i := 1 + rng.Intn(1500); i > 0; i-- {
					id := draw(rng)
					v := rng.Uint32()
					tab.put(id, latestRec{typeID: TypeID(v)})
					model[id] = v
					if tab.n != len(model) {
						t.Fatalf("%s seed %d: %d entries, model %d", name, seed, tab.n, len(model))
					}
				}
				label := fmt.Sprintf("%s seed %d round %d", name, seed, round)
				peak = max(peak, len(model))
				checkIDTable(t, label, &tab, model, peak)
				tab.clear()
				clear(model)
				if _, ok := tab.get(0); ok || tab.n != 0 {
					t.Fatalf("%s: cleared table holds %d entries", label, tab.n)
				}
			}
		}
	}
}

func checkIDTable(t *testing.T, label string, tab *idTable, model map[uint64]uint32, peak int) {
	t.Helper()
	for id, v := range model {
		e, ok := tab.get(id)
		if !ok || uint32(e.typeID) != v {
			t.Fatalf("%s: get(%d) = %d, %t; want %d", label, id, e.typeID, ok, v)
		}
	}
	for id := range tab.over {
		if id < tab.dense {
			t.Fatalf("%s: overflow id %d below the dense bound %d", label, id, tab.dense)
		}
	}
	if limit := uint64(2*(peak+1) + denseSlack); tab.dense > 2*limit {
		t.Fatalf("%s: dense part covers %d ids for at most %d entries", label, tab.dense, peak)
	}
	want := make([]uint64, 0, len(model))
	for id := range model {
		want = append(want, id)
	}
	slices.Sort(want)
	var got []uint64
	if err := tab.walk(tab.overflowIDs(), func(id uint64, _ latestRec) error {
		got = append(got, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: walk visited %d ids, want %d in order", label, len(got), len(want))
	}
}

// TestIDTableMigratesOverflow pins the growth step: an id past the bound
// waits in the map until a growth covers it, then moves into the pages.
func TestIDTableMigratesOverflow(t *testing.T) {
	var tab idTable
	tab.put(1500, latestRec{typeID: 1}) // past 2 × 1 + 1024
	tab.put(1000, latestRec{typeID: 2}) // pages cover [0, 1024)
	if len(tab.over) != 1 || tab.dense != 1024 {
		t.Fatalf("after 1500, 1000: dense %d, overflow %d; want 1024, 1", tab.dense, len(tab.over))
	}
	tab.put(1025, latestRec{typeID: 3}) // within 2 × 3 + 1024: pages cover [0, 2048)
	if len(tab.over) != 0 || tab.dense != 2048 || tab.n != 3 {
		t.Fatalf("after 1025: dense %d, overflow %d, n %d; want 2048, 0, 3", tab.dense, len(tab.over), tab.n)
	}
	if e, ok := tab.get(1500); !ok || e.typeID != 1 {
		t.Fatalf("get(1500) = %d, %t after it moved into the pages", e.typeID, ok)
	}
}

// orderObj records when Build creates and restores it. Its payload is one
// child id, resolved on restore.
type orderObj struct {
	info  Info
	trail *[]string
}

func (o *orderObj) CheckpointInfo() *Info    { return &o.info }
func (o *orderObj) CheckpointTypeID() TypeID { return TypeIDOf("idtable.order") }
func (o *orderObj) Record(e *wire.Encoder)   {}
func (o *orderObj) Fold(*Writer) error       { return nil }
func (o *orderObj) Restore(d *wire.Decoder, res *Resolver) error {
	*o.trail = append(*o.trail, fmt.Sprintf("restore %d", o.info.ID()))
	child, err := res.Lookup(d.Uvarint())
	if err == nil && child == nil {
		err = errors.New("nil child")
	}
	return err
}

func uvarint(v uint64) []byte {
	e := wire.NewEncoder(10)
	e.Uvarint(v)
	return e.Bytes()
}

// rawFull frames a version-1 Full body: one record per id, of type typ(id),
// with payload(id).
func rawFull(ids []uint64, typ func(uint64) TypeID, payload func(uint64) []byte) []byte {
	e := wire.NewEncoder(64 * len(ids))
	e.Byte(1)
	e.Byte(byte(Full))
	e.Uvarint(1)
	for _, id := range ids {
		p := payload(id)
		e.Uvarint(id)
		e.Uvarint(uint64(typ(id)))
		e.Uvarint(uint64(len(p)))
		e.Raw(p)
	}
	return e.Bytes()
}

// TestBuildOrderAcrossDenseAndOverflow: Build creates and restores objects in
// ascending id order across the dense part and the overflow, resolves
// children in both, and of two objects of an unknown type names the lower.
func TestBuildOrderAcrossDenseAndOverflow(t *testing.T) {
	dense := []uint64{1, 2, 3, 63, 64, 65, 700, 1000}
	over := []uint64{5000, 1 << 40, 1<<40 + 1, 1<<40 + 7, 1 << 47, idLimit - 1}
	for _, withOverflow := range []bool{false, true} {
		ids := slices.Clone(dense)
		if withOverflow {
			ids = append(ids, over...)
		}
		rng := rand.New(rand.NewSource(int64(len(ids))))
		shuffled := slices.Clone(ids)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		var trail []string
		reg := NewRegistry()
		typ := reg.MustRegister("idtable.order", func(id uint64) Restorable {
			trail = append(trail, fmt.Sprintf("create %d", id))
			return &orderObj{info: RestoredInfo(id), trail: &trail}
		})
		body := rawFull(shuffled, func(uint64) TypeID { return typ }, func(id uint64) []byte {
			child := ids[(slices.Index(ids, id)+1)%len(ids)]
			return uvarint(child)
		})
		rb := NewRebuilder(reg)
		if err := rb.Apply(body); err != nil {
			t.Fatal(err)
		}
		if got := len(rb.latest.over) > 0; got != withOverflow {
			t.Fatalf("overflow = %t, want %t", got, withOverflow)
		}
		objs, err := rb.Build(nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, step := range []string{"create", "restore"} {
			for _, id := range ids {
				want = append(want, fmt.Sprintf("%s %d", step, id))
			}
		}
		if !slices.Equal(trail, want) {
			t.Fatalf("overflow=%t: Build ran\n%v\nwant\n%v", withOverflow, trail, want)
		}
		if len(objs) != len(ids) {
			t.Fatalf("Build returned %d objects, want %d", len(objs), len(ids))
		}

		// A dangling child is reported, whichever way the resolver looks.
		dangling := rawFull(ids, func(uint64) TypeID { return typ }, func(id uint64) []byte {
			return uvarint(999)
		})
		if err := rb.Apply(dangling); err != nil {
			t.Fatal(err)
		}
		if _, err := rb.Build(nil); !errors.Is(err, ErrUnknownObject) {
			t.Fatalf("overflow=%t: dangling child: Build = %v, want ErrUnknownObject", withOverflow, err)
		}
	}

	// Unknown types at several ids: the lowest is reported, in the overflow
	// alone and with a dense one below it.
	for _, unknown := range [][]uint64{
		{1<<40 + 7, 1 << 47, 1<<40 + 1, idLimit - 1},
		{1<<40 + 7, 700, 1 << 47},
	} {
		ids := append(slices.Clone(dense), over...)
		reg := NewRegistry()
		var trail []string
		typ := reg.MustRegister("idtable.order", func(id uint64) Restorable {
			return &orderObj{info: RestoredInfo(id), trail: &trail}
		})
		rb := NewRebuilder(reg)
		if err := rb.Apply(rawFull(ids, func(id uint64) TypeID {
			if slices.Contains(unknown, id) {
				return typ + 1
			}
			return typ
		}, func(uint64) []byte { return uvarint(1) })); err != nil {
			t.Fatal(err)
		}
		_, err := rb.Build(nil)
		lowest := slices.Min(unknown)
		if !errors.Is(err, ErrUnknownType) || !strings.Contains(err.Error(), fmt.Sprintf("(object %d)", lowest)) {
			t.Fatalf("unknown types at %v: Build = %v, want ErrUnknownType at object %d", unknown, err, lowest)
		}
	}
}

// TestBuildRefusesUnrepresentableIDs: replay keeps any id, but an Info holds
// ids below 2^48 only, so Build refuses a state naming a larger one as a
// malformed body before any factory runs.
func TestBuildRefusesUnrepresentableIDs(t *testing.T) {
	for _, bad := range []uint64{idLimit, 1<<63 - 1} {
		made := 0
		reg := NewRegistry()
		typ := reg.MustRegister("idtable.limit", func(id uint64) Restorable {
			made++
			return &orderObj{info: RestoredInfo(id)}
		})
		rb := NewRebuilder(reg)
		body := rawFull([]uint64{1, 2, bad}, func(uint64) TypeID { return typ }, func(uint64) []byte { return uvarint(1) })
		if err := rb.Apply(body); err != nil {
			t.Fatalf("id %d: Apply = %v, want replay to accept it", bad, err)
		}
		if _, err := rb.Build(NewDomain()); !errors.Is(err, ErrBadBody) || made != 0 {
			t.Fatalf("id %d: Build = %v after %d factory calls, want ErrBadBody after none", bad, err, made)
		}
	}
}

// allocPerRun returns the bytes one call of f allocates, averaged over runs.
func allocPerRun(runs int, f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// TestRebuilderAllocationFollowsEntries: what a fresh rebuilder allocates to
// replay a Full body is bounded by its records, not by their ids. N dense
// records cost at most two table entries each plus their payloads; a body
// of 1 000 records whose ids are spread to 2^20, or start at 2^40, costs no
// more than a small multiple of that, and ids at 2^40 allocate no pages at
// all, wherever they lie.
func TestRebuilderAllocationFollowsEntries(t *testing.T) {
	const payload = 32
	entry := uint64(unsafe.Sizeof(latestRec{}))
	reg := NewRegistry()
	replay := func(body []byte) *Rebuilder {
		rb := NewRebuilder(reg)
		if err := rb.Apply(body); err != nil {
			t.Fatal(err)
		}
		return rb
	}
	v2 := func(ids []uint64) []byte {
		e := wire.NewEncoder((payload + 16) * len(ids))
		e.Byte(bodyVersion2)
		e.Byte(byte(Full))
		e.Uvarint(1)
		p := make([]byte, payload)
		for _, id := range ids {
			e.Uvarint(id)
			e.Uvarint(1)
			e.Byte(wire.KindFull)
			e.Uvarint(payload)
			e.Raw(p)
		}
		return e.Bytes()
	}
	layout := func(n int, id func(k uint64) uint64) []uint64 {
		ids := make([]uint64, n)
		for k := range ids {
			ids[k] = id(uint64(k + 1))
		}
		return ids
	}

	const slack = 64 << 10
	for _, n := range []int{1000, 4096, 30000, 100000} {
		body := v2(layout(n, func(k uint64) uint64 { return k }))
		got := allocPerRun(4, func() { replay(body) })
		limit := 2*uint64(n)*entry + uint64(n)*payload + slack
		t.Logf("%d dense records: %d B, limit %d", n, got, limit)
		if got > limit {
			t.Errorf("replaying %d dense records allocated %d B, want at most %d", n, got, limit)
		}
	}

	const n = 1000
	denseBody := v2(layout(n, func(k uint64) uint64 { return k }))
	dense := allocPerRun(8, func() { replay(denseBody) })
	high := map[string][]uint64{
		"2^40 on":        layout(n, func(k uint64) uint64 { return 1<<40 + k }),
		"2^40, spread":   layout(n, func(k uint64) uint64 { return 1<<40 + k<<20 }),
		"below 2^63":     layout(n, func(k uint64) uint64 { return 1<<63 - k }),
		"spread to 2^20": layout(n, func(k uint64) uint64 { return k << 10 }),
	}
	var highAlloc []uint64
	for name, ids := range high {
		body := v2(ids)
		got := allocPerRun(8, func() { replay(body) })
		t.Logf("%d records, ids %s: %d B (dense ids: %d B)", n, name, got, dense)
		// A map entry costs at most 256 B, its share of the map's growth included.
		if limit := uint64(n)*(payload+256) + 2*slack; got > limit {
			t.Errorf("%d records, ids %s: allocated %d B, want at most %d", n, name, got, limit)
		}
		if ids[0] < 1<<40 {
			continue
		}
		if rb := replay(body); rb.latest.pages != nil {
			t.Errorf("ids %s: %d pages allocated", name, len(rb.latest.pages))
		}
		highAlloc = append(highAlloc, got)
	}
	if lo, hi := slices.Min(highAlloc), slices.Max(highAlloc); hi-lo > hi/8 {
		t.Errorf("ids at 2^40 and above allocated %d to %d B: it depends on where they lie", lo, hi)
	}
}

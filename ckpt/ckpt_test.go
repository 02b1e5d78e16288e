package ckpt_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"ickpt/ckpt"
	"ickpt/wire"
)

// Test fixture: a box holding a linked list of points, mirroring the paper's
// Entry classes (local scalar state + checkpointable children).

var (
	typePoint = ckpt.TypeIDOf("ckpttest.point")
	typeBox   = ckpt.TypeIDOf("ckpttest.box")
)

type point struct {
	info  ckpt.Info
	x, y  int64
	label string
	next  *point
}

var _ ckpt.Restorable = (*point)(nil)

func newPoint(d *ckpt.Domain, x, y int64, label string) *point {
	return &point{info: ckpt.NewInfo(d), x: x, y: y, label: label}
}

func (p *point) CheckpointInfo() *ckpt.Info    { return &p.info }
func (p *point) CheckpointTypeID() ckpt.TypeID { return typePoint }
func (p *point) Record(e *wire.Encoder) {
	e.Varint(p.x)
	e.Varint(p.y)
	e.String(p.label)
	e.Uvarint(childID(p.next))
}
func (p *point) Fold(w *ckpt.Writer) error {
	if p.next != nil {
		return w.Checkpoint(p.next)
	}
	return nil
}
func (p *point) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	p.x = d.Varint()
	p.y = d.Varint()
	p.label = d.String()
	next, err := ckpt.ResolveAs[*point](res, d.Uvarint())
	if err != nil {
		return err
	}
	p.next = next
	return nil
}

type box struct {
	info ckpt.Info
	n    int64
	head *point
}

var _ ckpt.Restorable = (*box)(nil)

func newBox(d *ckpt.Domain, n int64) *box {
	return &box{info: ckpt.NewInfo(d), n: n}
}

func (b *box) CheckpointInfo() *ckpt.Info    { return &b.info }
func (b *box) CheckpointTypeID() ckpt.TypeID { return typeBox }
func (b *box) Record(e *wire.Encoder) {
	e.Varint(b.n)
	e.Uvarint(childID(b.head))
}
func (b *box) Fold(w *ckpt.Writer) error {
	if b.head != nil {
		return w.Checkpoint(b.head)
	}
	return nil
}
func (b *box) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	b.n = d.Varint()
	head, err := ckpt.ResolveAs[*point](res, d.Uvarint())
	if err != nil {
		return err
	}
	b.head = head
	return nil
}

func childID(p *point) uint64 {
	if p == nil {
		return ckpt.NilID
	}
	return p.info.ID()
}

func testRegistry(t *testing.T) *ckpt.Registry {
	t.Helper()
	reg := ckpt.NewRegistry()
	reg.MustRegister("ckpttest.point", func(id uint64) ckpt.Restorable {
		return &point{info: ckpt.RestoredInfo(id)}
	})
	reg.MustRegister("ckpttest.box", func(id uint64) ckpt.Restorable {
		return &box{info: ckpt.RestoredInfo(id)}
	})
	return reg
}

// buildChain returns a box with a list of n points.
func buildChain(d *ckpt.Domain, n int) *box {
	b := newBox(d, int64(n))
	var head *point
	for i := n - 1; i >= 0; i-- {
		p := newPoint(d, int64(i), int64(i*i), "p")
		p.next = head
		head = p
	}
	b.head = head
	return b
}

func checkpointBody(t *testing.T, w *ckpt.Writer, mode ckpt.Mode, roots ...ckpt.Checkpointable) ([]byte, ckpt.Stats) {
	t.Helper()
	w.Start(mode)
	for _, r := range roots {
		if err := w.Checkpoint(r); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	body, stats, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	out := make([]byte, len(body))
	copy(out, body)
	return out, stats
}

func TestDomainIssuesUniqueIDs(t *testing.T) {
	d := ckpt.NewDomain()
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		info := ckpt.NewInfo(d)
		if info.ID() == ckpt.NilID {
			t.Fatal("issued NilID")
		}
		if seen[info.ID()] {
			t.Fatalf("duplicate id %d", info.ID())
		}
		seen[info.ID()] = true
		if !info.Modified() {
			t.Fatal("new Info must start modified")
		}
	}
	if d.Last() != 1000 {
		t.Errorf("Last = %d, want 1000", d.Last())
	}
}

func TestDomainAdvance(t *testing.T) {
	d := ckpt.NewDomain()
	d.Advance(50)
	info := ckpt.NewInfo(d)
	if info.ID() != 51 {
		t.Errorf("id after Advance(50) = %d, want 51", info.ID())
	}
	d.Advance(10) // must not move backwards
	info = ckpt.NewInfo(d)
	if info.ID() != 52 {
		t.Errorf("id = %d, want 52", info.ID())
	}
}

// TestDomainIDSpace: a Domain issues ids up to 2^48 - 1, the largest an Info
// holds, and panics rather than issue the next.
func TestDomainIDSpace(t *testing.T) {
	d := ckpt.NewDomain()
	d.Advance(1<<48 - 2)
	info := ckpt.NewInfo(d)
	if info.ID() != 1<<48-1 || !info.Modified() {
		t.Fatalf("last id = %d, modified %t; want %d, true", info.ID(), info.Modified(), uint64(1<<48-1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewInfo past 2^48 - 1 did not panic")
		}
	}()
	ckpt.NewInfo(d)
}

// TestInfoSize pins the per-object header at 16 bytes: every
// checkpointable object embeds an Info, so a field added to it costs every
// object of every graph (see the Info comment).
func TestInfoSize(t *testing.T) {
	if got := unsafe.Sizeof(ckpt.Info{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(ckpt.Info{}) = %d, want 16", got)
	}
}

func TestCellMarksOwner(t *testing.T) {
	d := ckpt.NewDomain()
	info := ckpt.NewInfo(d)
	info.ResetModified()

	var c ckpt.Cell[int]
	c.Set(&info, 7)
	if !info.Modified() {
		t.Error("Cell.Set did not mark owner modified")
	}
	if c.Get() != 7 {
		t.Errorf("Cell.Get = %d, want 7", c.Get())
	}
}

func TestFullCheckpointRecordsEverything(t *testing.T) {
	d := ckpt.NewDomain()
	b := buildChain(d, 5)
	w := ckpt.NewWriter()

	body, stats := checkpointBody(t, w, ckpt.Full, b)
	if stats.Visited != 6 || stats.Recorded != 6 {
		t.Errorf("stats = %+v, want 6 visited and recorded", stats)
	}
	info, err := ckpt.InspectBodyKinds(body, nil)
	if err != nil {
		t.Fatalf("InspectBodyKinds: %v", err)
	}
	if info.Records != 6 || info.Mode != ckpt.Full || info.Epoch != 1 {
		t.Errorf("body info = %+v", info)
	}
}

func TestIncrementalSkipsUnmodified(t *testing.T) {
	d := ckpt.NewDomain()
	b := buildChain(d, 5)
	w := ckpt.NewWriter()

	// First incremental: everything is new, hence modified.
	_, stats := checkpointBody(t, w, ckpt.Incremental, b)
	if stats.Recorded != 6 {
		t.Fatalf("first incremental recorded %d, want 6", stats.Recorded)
	}

	// Nothing changed: traversal happens, nothing is recorded.
	body, stats := checkpointBody(t, w, ckpt.Incremental, b)
	if stats.Visited != 6 || stats.Recorded != 0 || stats.Skipped != 6 {
		t.Errorf("quiescent stats = %+v", stats)
	}
	info, err := ckpt.InspectBodyKinds(body, nil)
	if err != nil {
		t.Fatalf("InspectBodyKinds: %v", err)
	}
	if info.Records != 0 {
		t.Errorf("quiescent body has %d records", info.Records)
	}

	// Modify one object: exactly one record.
	b.head.next.x = 99
	b.head.next.info.SetModified()
	_, stats = checkpointBody(t, w, ckpt.Incremental, b)
	if stats.Recorded != 1 {
		t.Errorf("after one mutation recorded %d, want 1", stats.Recorded)
	}
}

func TestCheckpointWithoutStart(t *testing.T) {
	d := ckpt.NewDomain()
	b := buildChain(d, 1)
	w := ckpt.NewWriter()
	if err := w.Checkpoint(b); !errors.Is(err, ckpt.ErrNotStarted) {
		t.Errorf("Checkpoint = %v, want ErrNotStarted", err)
	}
	if _, _, err := w.Finish(); !errors.Is(err, ckpt.ErrNotStarted) {
		t.Errorf("Finish = %v, want ErrNotStarted", err)
	}
}

func TestRebuildFromFull(t *testing.T) {
	d := ckpt.NewDomain()
	b := buildChain(d, 4)
	b.head.label = "first"
	b.head.info.SetModified()
	w := ckpt.NewWriter()
	body, _ := checkpointBody(t, w, ckpt.Full, b)

	rb := ckpt.NewRebuilder(testRegistry(t))
	if err := rb.Apply(body); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	d2 := ckpt.NewDomain()
	objs, err := rb.Build(d2)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	got, ok := objs[b.info.ID()].(*box)
	if !ok {
		t.Fatalf("rebuilt root is %T", objs[b.info.ID()])
	}
	requireChainEqual(t, b, got)
	if d2.Last() < rb.MaxID() {
		t.Errorf("domain not advanced: last=%d maxID=%d", d2.Last(), rb.MaxID())
	}
}

func TestRebuildFullPlusIncrementals(t *testing.T) {
	d := ckpt.NewDomain()
	b := buildChain(d, 6)
	w := ckpt.NewWriter()

	var bodies [][]byte
	body, _ := checkpointBody(t, w, ckpt.Full, b)
	bodies = append(bodies, body)

	// Three rounds of mutations, each followed by an incremental.
	for round := 0; round < 3; round++ {
		i := 0
		for p := b.head; p != nil; p = p.next {
			if i%2 == round%2 {
				p.x += int64(round + 1)
				p.info.SetModified()
			}
			i++
		}
		b.n++
		b.info.SetModified()
		body, _ := checkpointBody(t, w, ckpt.Incremental, b)
		bodies = append(bodies, body)
	}

	rb := ckpt.NewRebuilder(testRegistry(t))
	for _, body := range bodies {
		if err := rb.Apply(body); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	got := objs[b.info.ID()].(*box)
	requireChainEqual(t, b, got)
}

func TestRebuildFirstBodyMustBeFull(t *testing.T) {
	d := ckpt.NewDomain()
	b := buildChain(d, 2)
	w := ckpt.NewWriter()
	body, _ := checkpointBody(t, w, ckpt.Incremental, b)

	rb := ckpt.NewRebuilder(testRegistry(t))
	if err := rb.Apply(body); !errors.Is(err, ckpt.ErrBadBody) {
		t.Errorf("Apply incremental first = %v, want ErrBadBody", err)
	}
}

func TestRebuildFullResetsDeadObjects(t *testing.T) {
	d := ckpt.NewDomain()
	b := buildChain(d, 3)
	w := ckpt.NewWriter()

	body1, _ := checkpointBody(t, w, ckpt.Full, b)

	// Drop the tail of the list, then take another full checkpoint.
	dropped := b.head.next
	b.head.next = nil
	b.head.info.SetModified()
	body2, _ := checkpointBody(t, w, ckpt.Full, b)

	rb := ckpt.NewRebuilder(testRegistry(t))
	if err := rb.Apply(body1); err != nil {
		t.Fatal(err)
	}
	if err := rb.Apply(body2); err != nil {
		t.Fatal(err)
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, ok := objs[dropped.info.ID()]; ok {
		t.Error("dead object resurrected after full checkpoint")
	}
	if len(objs) != 2 { // box + remaining point
		t.Errorf("rebuilt %d objects, want 2", len(objs))
	}
}

func TestRebuildUnknownType(t *testing.T) {
	d := ckpt.NewDomain()
	b := buildChain(d, 1)
	w := ckpt.NewWriter()
	body, _ := checkpointBody(t, w, ckpt.Full, b)

	reg := ckpt.NewRegistry() // nothing registered
	rb := ckpt.NewRebuilder(reg)
	if err := rb.Apply(body); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Build(nil); !errors.Is(err, ckpt.ErrUnknownType) {
		t.Errorf("Build = %v, want ErrUnknownType", err)
	}
}

func TestRebuildCorruptBody(t *testing.T) {
	d := ckpt.NewDomain()
	b := buildChain(d, 3)
	w := ckpt.NewWriter()
	body, _ := checkpointBody(t, w, ckpt.Full, b)

	// Cuts inside the header or inside the final record must fail. A cut
	// exactly on a record boundary is a legal (shorter) body, so only
	// mid-record offsets are tested.
	for _, cut := range []int{1, 2, len(body) - 1} {
		rb := ckpt.NewRebuilder(testRegistry(t))
		if err := rb.Apply(body[:cut]); err == nil {
			t.Errorf("Apply truncated body (cut=%d) succeeded", cut)
		}
	}
}

func TestResolveAsTypeMismatch(t *testing.T) {
	d := ckpt.NewDomain()
	b := newBox(d, 1)
	p := newPoint(d, 1, 2, "x")
	// Hand-craft a body where the box's head id points at another box.
	b2 := newBox(d, 2)
	b.head = p
	_ = p

	w := ckpt.NewWriter()
	w.Start(ckpt.Full)
	em := w.Emitter()
	enc := em.Begin(b.CheckpointInfo(), typeBox)
	enc.Varint(b.n)
	enc.Uvarint(b2.info.ID()) // wrong type for head
	em.End()
	em.Emit(b2)
	body, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}

	rb := ckpt.NewRebuilder(testRegistry(t))
	if err := rb.Apply(append([]byte(nil), body...)); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Build(nil); !errors.Is(err, ckpt.ErrTypeConflict) {
		t.Errorf("Build = %v, want ErrTypeConflict", err)
	}
}

func TestWriterEpochAdvances(t *testing.T) {
	d := ckpt.NewDomain()
	b := buildChain(d, 1)
	w := ckpt.NewWriter()
	body1, _ := checkpointBody(t, w, ckpt.Full, b)
	body2, _ := checkpointBody(t, w, ckpt.Full, b)
	i1, err := ckpt.InspectBodyKinds(body1, nil)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := ckpt.InspectBodyKinds(body2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i1.Epoch != 1 || i2.Epoch != 2 {
		t.Errorf("epochs = %d, %d; want 1, 2", i1.Epoch, i2.Epoch)
	}
	if !bytes.Equal(body1[3:], body2[3:]) {
		t.Error("identical state should yield identical records")
	}
}

// requireChainEqual compares a box and its full list structurally.
func requireChainEqual(t *testing.T, want, got *box) {
	t.Helper()
	if want.n != got.n {
		t.Errorf("box.n = %d, want %d", got.n, want.n)
	}
	wp, gp := want.head, got.head
	i := 0
	for wp != nil && gp != nil {
		if wp.x != gp.x || wp.y != gp.y || wp.label != gp.label {
			t.Errorf("point %d = (%d,%d,%q), want (%d,%d,%q)",
				i, gp.x, gp.y, gp.label, wp.x, wp.y, wp.label)
		}
		if wp.info.ID() != gp.info.ID() {
			t.Errorf("point %d id = %d, want %d", i, gp.info.ID(), wp.info.ID())
		}
		wp, gp = wp.next, gp.next
		i++
	}
	if (wp == nil) != (gp == nil) {
		t.Error("list lengths differ")
	}
}

// TestQuickIncrementalEqualsState fuzzes mutation sequences: after a base
// full checkpoint and a run of incrementals, the rebuilt state must equal
// the live state — the core correctness invariant of incremental
// checkpointing.
func TestQuickIncrementalEqualsState(t *testing.T) {
	f := func(seed int64, rounds uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := ckpt.NewDomain()
		b := buildChain(d, 1+rng.Intn(8))
		w := ckpt.NewWriter()

		w.Start(ckpt.Full)
		if err := w.Checkpoint(b); err != nil {
			return false
		}
		body, _, err := w.Finish()
		if err != nil {
			return false
		}
		rb := ckpt.NewRebuilder(testRegistryQuick())
		if err := rb.Apply(append([]byte(nil), body...)); err != nil {
			return false
		}

		n := int(rounds % 6)
		for r := 0; r < n; r++ {
			// Random mutations: tweak fields, extend or truncate the list.
			for p := b.head; p != nil; p = p.next {
				if rng.Intn(3) == 0 {
					p.x = rng.Int63n(1000)
					p.y = -p.x
					p.info.SetModified()
				}
			}
			switch rng.Intn(4) {
			case 0: // prepend
				p := newPoint(d, rng.Int63n(100), 0, "new")
				p.next = b.head
				b.head = p
				b.info.SetModified()
			case 1: // truncate after head
				if b.head != nil && b.head.next != nil {
					b.head.next = nil
					b.head.info.SetModified()
				}
			}
			b.n = rng.Int63n(1 << 30)
			b.info.SetModified()

			w.Start(ckpt.Incremental)
			if err := w.Checkpoint(b); err != nil {
				return false
			}
			body, _, err := w.Finish()
			if err != nil {
				return false
			}
			if err := rb.Apply(append([]byte(nil), body...)); err != nil {
				return false
			}
		}

		objs, err := rb.Build(nil)
		if err != nil {
			return false
		}
		got, ok := objs[b.info.ID()].(*box)
		if !ok || got.n != b.n {
			return false
		}
		wp, gp := b.head, got.head
		for wp != nil && gp != nil {
			if wp.x != gp.x || wp.y != gp.y || wp.info.ID() != gp.info.ID() {
				return false
			}
			wp, gp = wp.next, gp.next
		}
		return wp == nil && gp == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// testRegistryQuick is testRegistry without the *testing.T dependency, for
// use inside quick.Check functions.
func testRegistryQuick() *ckpt.Registry {
	reg := ckpt.NewRegistry()
	reg.MustRegister("ckpttest.point", func(id uint64) ckpt.Restorable {
		return &point{info: ckpt.RestoredInfo(id)}
	})
	reg.MustRegister("ckpttest.box", func(id uint64) ckpt.Restorable {
		return &box{info: ckpt.RestoredInfo(id)}
	})
	return reg
}

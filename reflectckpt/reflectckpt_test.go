package reflectckpt_test

import (
	"bytes"
	"errors"
	"testing"

	"ickpt/ckpt"
	"ickpt/reflectckpt"
	"ickpt/wire"
)

// Fixture types: a node with every supported scalar kind, a child, and a
// list of elements — with handwritten Record/Fold that must match the
// reflection engine byte for byte.

var (
	typeNode = ckpt.TypeIDOf("rtest.node")
	typeElem = ckpt.TypeIDOf("rtest.elem")
)

type elem struct {
	Info ckpt.Info
	Val  int64 `ckpt:"field"`
	Next *elem `ckpt:"next"`
}

var _ ckpt.Restorable = (*elem)(nil)

func (e *elem) CheckpointInfo() *ckpt.Info    { return &e.Info }
func (e *elem) CheckpointTypeID() ckpt.TypeID { return typeElem }
func (e *elem) Record(enc *wire.Encoder) {
	enc.Varint(e.Val)
	enc.Uvarint(elemID(e.Next))
}
func (e *elem) Fold(w *ckpt.Writer) error {
	if e.Next != nil {
		return w.Checkpoint(e.Next)
	}
	return nil
}
func (e *elem) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	e.Val = d.Varint()
	next, err := ckpt.ResolveAs[*elem](res, d.Uvarint())
	if err != nil {
		return err
	}
	e.Next = next
	return nil
}

type node struct {
	Info  ckpt.Info
	I     int64            `ckpt:"field"`
	U     uint64           `ckpt:"field"`
	F     float64          `ckpt:"field"`
	B     bool             `ckpt:"field"`
	S     string           `ckpt:"field"`
	Raw   []byte           `ckpt:"field"`
	Score ckpt.Cell[int64] `ckpt:"field"`
	Head  *elem            `ckpt:"list"`
}

var _ ckpt.Restorable = (*node)(nil)

func (n *node) CheckpointInfo() *ckpt.Info    { return &n.Info }
func (n *node) CheckpointTypeID() ckpt.TypeID { return typeNode }
func (n *node) Record(enc *wire.Encoder) {
	enc.Varint(n.I)
	enc.Uvarint(n.U)
	enc.Float64(n.F)
	enc.Bool(n.B)
	enc.String(n.S)
	enc.BytesField(n.Raw)
	enc.Varint(n.Score.V)
	enc.Uvarint(elemID(n.Head))
}
func (n *node) Fold(w *ckpt.Writer) error {
	if n.Head != nil {
		return w.Checkpoint(n.Head)
	}
	return nil
}
func (n *node) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	n.I = d.Varint()
	n.U = d.Uvarint()
	n.F = d.Float64()
	n.B = d.Bool()
	n.S = d.String()
	n.Raw = d.BytesField()
	n.Score.V = d.Varint()
	head, err := ckpt.ResolveAs[*elem](res, d.Uvarint())
	if err != nil {
		return err
	}
	n.Head = head
	return nil
}

func elemID(e *elem) uint64 {
	if e == nil {
		return ckpt.NilID
	}
	return e.Info.ID()
}

func buildNode(d *ckpt.Domain, listLen int) *node {
	n := &node{
		Info: ckpt.NewInfo(d),
		I:    -42, U: 42, F: 2.5, B: true, S: "state", Raw: []byte{1, 2},
	}
	n.Score.V = 7
	var head *elem
	for i := listLen - 1; i >= 0; i-- {
		e := &elem{Info: ckpt.NewInfo(d), Val: int64(i * 10)}
		e.Next = head
		head = e
	}
	n.Head = head
	return n
}

func body(t *testing.T, checkpoint func(w *ckpt.Writer) error, mode ckpt.Mode) ([]byte, ckpt.Stats) {
	t.Helper()
	w := ckpt.NewWriter()
	w.Start(mode)
	if err := checkpoint(w); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	b, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, stats
}

func TestReflectMatchesVirtualFull(t *testing.T) {
	d1 := ckpt.NewDomain()
	n1 := buildNode(d1, 4)
	d2 := ckpt.NewDomain()
	n2 := buildNode(d2, 4)

	virtBody, vstats := body(t, func(w *ckpt.Writer) error { return w.Checkpoint(n1) }, ckpt.Full)
	en := reflectckpt.NewEngine()
	reflBody, rstats := body(t, func(w *ckpt.Writer) error { return en.Checkpoint(w, n2) }, ckpt.Full)

	if !bytes.Equal(virtBody, reflBody) {
		t.Errorf("reflection body differs from virtual body:\n  virt %x\n  refl %x", virtBody, reflBody)
	}
	if vstats.Recorded != rstats.Recorded || vstats.Visited != rstats.Visited {
		t.Errorf("stats differ: virtual %+v, reflect %+v", vstats, rstats)
	}
}

func TestReflectMatchesVirtualIncremental(t *testing.T) {
	d1 := ckpt.NewDomain()
	n1 := buildNode(d1, 4)
	d2 := ckpt.NewDomain()
	n2 := buildNode(d2, 4)
	en := reflectckpt.NewEngine()

	// Drain the initial modified flags.
	body(t, func(w *ckpt.Writer) error { return w.Checkpoint(n1) }, ckpt.Incremental)
	body(t, func(w *ckpt.Writer) error { return en.Checkpoint(w, n2) }, ckpt.Incremental)

	// Same mutation on both universes.
	mutate := func(n *node) {
		n.Head.Next.Val = 999
		n.Head.Next.Info.SetModified()
		n.Score.Set(&n.Info, 123)
	}
	mutate(n1)
	mutate(n2)

	b1, s1 := body(t, func(w *ckpt.Writer) error { return w.Checkpoint(n1) }, ckpt.Incremental)
	// Writers above were fresh (epoch 1 then...), so build both with same epochs:
	_ = s1
	b2, _ := body(t, func(w *ckpt.Writer) error { return en.Checkpoint(w, n2) }, ckpt.Incremental)
	if !bytes.Equal(b1, b2) {
		t.Errorf("incremental bodies differ:\n  virt %x\n  refl %x", b1, b2)
	}
	info, err := ckpt.InspectBodyKinds(b1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 2 {
		t.Errorf("records = %d, want 2 (node + one elem)", info.Records)
	}
}

func TestReflectRestoreRoundTrip(t *testing.T) {
	d := ckpt.NewDomain()
	n := buildNode(d, 3)
	n.S = "round trip"

	fullBody, _ := body(t, func(w *ckpt.Writer) error { return w.Checkpoint(n) }, ckpt.Full)

	reg := ckpt.NewRegistry()
	reg.MustRegister("rtest.node", func(id uint64) ckpt.Restorable {
		return &node{Info: ckpt.RestoredInfo(id)}
	})
	reg.MustRegister("rtest.elem", func(id uint64) ckpt.Restorable {
		return &elem{Info: ckpt.RestoredInfo(id)}
	})
	rb := ckpt.NewRebuilder(reg)
	if err := rb.Apply(fullBody); err != nil {
		t.Fatal(err)
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := objs[n.Info.ID()].(*node)
	if got.I != n.I || got.U != n.U || got.F != n.F || got.B != n.B ||
		got.S != n.S || !bytes.Equal(got.Raw, n.Raw) || got.Score.V != n.Score.V {
		t.Errorf("restored node = %+v, want %+v", got, n)
	}
	w, g := n.Head, got.Head
	for w != nil && g != nil {
		if w.Val != g.Val {
			t.Errorf("elem val = %d, want %d", g.Val, w.Val)
		}
		w, g = w.Next, g.Next
	}
	if (w == nil) != (g == nil) {
		t.Error("list length mismatch")
	}
}

// TestReflectEngineRestoreHelper checks the one-line Restore implementation
// path: decode via reflection what was encoded via reflection.
func TestReflectEngineRestoreHelper(t *testing.T) {
	d := ckpt.NewDomain()
	n := buildNode(d, 0)
	n.Head = nil

	en := reflectckpt.NewEngine()
	b, _ := body(t, func(w *ckpt.Writer) error { return en.Checkpoint(w, n) }, ckpt.Full)

	var payload []byte
	_, err := ckpt.InspectBodyKinds(b, func(id uint64, tt ckpt.TypeID, _ byte, p []byte) error {
		if id == n.Info.ID() {
			payload = append([]byte(nil), p...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fresh := &node{Info: ckpt.RestoredInfo(n.Info.ID())}
	// All child ids in the payload are NilID, so an empty resolver works.
	res := &ckpt.Resolver{}
	if err := en.Restore(fresh, wire.NewDecoder(payload), res); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if fresh.I != n.I || fresh.S != n.S || fresh.Score.V != n.Score.V {
		t.Errorf("restored = %+v, want %+v", fresh, n)
	}
}

type badTag struct {
	Info ckpt.Info
	X    complex128 `ckpt:"field"`
}

func (b *badTag) CheckpointInfo() *ckpt.Info    { return &b.Info }
func (b *badTag) CheckpointTypeID() ckpt.TypeID { return 1 }
func (b *badTag) Record(*wire.Encoder)          {}
func (b *badTag) Fold(*ckpt.Writer) error       { return nil }

func TestReflectRejectsUnsupportedKind(t *testing.T) {
	d := ckpt.NewDomain()
	b := &badTag{Info: ckpt.NewInfo(d)}
	en := reflectckpt.NewEngine()
	w := ckpt.NewWriter()
	w.Start(ckpt.Full)
	if err := en.Checkpoint(w, b); !errors.Is(err, reflectckpt.ErrSchema) {
		t.Errorf("Checkpoint = %v, want ErrSchema", err)
	}
}

type unexportedTag struct {
	Info ckpt.Info
	x    int64 `ckpt:"field"`
}

func (u *unexportedTag) CheckpointInfo() *ckpt.Info    { return &u.Info }
func (u *unexportedTag) CheckpointTypeID() ckpt.TypeID { return 2 }
func (u *unexportedTag) Record(*wire.Encoder)          {}
func (u *unexportedTag) Fold(*ckpt.Writer) error       { return nil }

func TestReflectRejectsUnexportedTag(t *testing.T) {
	d := ckpt.NewDomain()
	u := &unexportedTag{Info: ckpt.NewInfo(d), x: 1}
	en := reflectckpt.NewEngine()
	w := ckpt.NewWriter()
	w.Start(ckpt.Full)
	if err := en.Checkpoint(w, u); !errors.Is(err, reflectckpt.ErrSchema) {
		t.Errorf("Checkpoint = %v, want ErrSchema", err)
	}
}

// Package recordfold is a ckptvet test fixture. It seeds hand-written
// Record/Fold/Restore trios that violate the record convention — Fold
// traversing children in a different order than Record writes their ids,
// and Restore decoding a different wire sequence than Record encodes —
// next to a correct trio the analyzer must accept. Each `want` comment
// declares the diagnostic the recordfold analyzer must report on that line.
//
// The package compiles and its types are protocol-complete, but they are
// deliberately corrupt: rebuilding their checkpoints would swap children or
// misparse bodies. It is excluded from cmd/ckptvet runs by default.
package recordfold

import (
	"ickpt/ckpt"
	"ickpt/wire"
)

var (
	typeTree = ckpt.TypeIDOf("lintfixtures.Tree")
	typePair = ckpt.TypeIDOf("lintfixtures.Pair")
	typeGood = ckpt.TypeIDOf("lintfixtures.Good")
)

// Tree's Fold visits its children in the opposite order of Record's child
// ids: restored structures would swap Left and Right.
type Tree struct {
	Info        ckpt.Info
	Val         int64
	Left, Right *Tree
}

// CheckpointInfo returns the node's checkpoint metadata.
func (t *Tree) CheckpointInfo() *ckpt.Info { return &t.Info }

// CheckpointTypeID returns the node's stable type id.
func (t *Tree) CheckpointTypeID() ckpt.TypeID { return typeTree }

// Record writes the value, then the Left and Right ids — in that order.
func (t *Tree) Record(e *wire.Encoder) {
	e.Varint(t.Val)
	if t.Left != nil {
		e.Uvarint(t.Left.Info.ID())
	} else {
		e.Uvarint(ckpt.NilID)
	}
	if t.Right != nil {
		e.Uvarint(t.Right.Info.ID())
	} else {
		e.Uvarint(ckpt.NilID)
	}
}

// Fold traverses Right first — the seeded defect.
func (t *Tree) Fold(w *ckpt.Writer) error {
	if t.Right != nil {
		if err := w.Checkpoint(t.Right); err != nil { // want `Tree\.Fold visits child Right at position 1, but Tree\.Record writes the id of Left there`
			return err
		}
	}
	if t.Left != nil {
		return w.Checkpoint(t.Left)
	}
	return nil
}

// Pair's Restore decodes the wire in the wrong order.
type Pair struct {
	Info ckpt.Info
	A    int64
	B    uint64
	Next *Pair
}

// CheckpointInfo returns the pair's checkpoint metadata.
func (p *Pair) CheckpointInfo() *ckpt.Info { return &p.Info }

// CheckpointTypeID returns the pair's stable type id.
func (p *Pair) CheckpointTypeID() ckpt.TypeID { return typePair }

// Record encodes A (varint), B (uvarint), then the Next child id.
func (p *Pair) Record(e *wire.Encoder) {
	e.Varint(p.A)
	e.Uint64(p.B)
	if p.Next != nil {
		e.Uvarint(p.Next.Info.ID())
	} else {
		e.Uvarint(ckpt.NilID)
	}
}

// Fold traverses the single child.
func (p *Pair) Fold(w *ckpt.Writer) error {
	if p.Next != nil {
		return w.Checkpoint(p.Next)
	}
	return nil
}

// Restore decodes B where Record encoded A — the seeded defect: every
// field after the first is misparsed.
func (p *Pair) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	p.B = d.Uint64() // want `Pair\.Restore decodes wire\.Uint64 at wire position 1, but Pair\.Record encodes wire\.Varint there`
	p.A = d.Varint()
	next, err := ckpt.ResolveAs[*Pair](res, d.Uvarint())
	if err != nil {
		return err
	}
	p.Next = next
	return nil
}

// Good is a correct trio: the analyzer must stay silent on it.
type Good struct {
	Info ckpt.Info
	Name string
	Next *Good
}

// CheckpointInfo returns the object's checkpoint metadata.
func (g *Good) CheckpointInfo() *ckpt.Info { return &g.Info }

// CheckpointTypeID returns the object's stable type id.
func (g *Good) CheckpointTypeID() ckpt.TypeID { return typeGood }

// Record writes the name, then the Next id.
func (g *Good) Record(e *wire.Encoder) {
	e.String(g.Name)
	if g.Next != nil {
		e.Uvarint(g.Next.Info.ID())
	} else {
		e.Uvarint(ckpt.NilID)
	}
}

// Fold traverses the single child, matching Record.
func (g *Good) Fold(w *ckpt.Writer) error {
	if g.Next != nil {
		return w.Checkpoint(g.Next)
	}
	return nil
}

// Restore reads exactly what Record wrote.
func (g *Good) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	g.Name = d.String()
	next, err := ckpt.ResolveAs[*Good](res, d.Uvarint())
	if err != nil {
		return err
	}
	g.Next = next
	return nil
}

var typeGuarded = ckpt.TypeIDOf("lintfixtures.Guarded")

// Guarded is a correct trio whose Fold runs the epoch commit/abort
// protocol around its child traversal: a retry loop that aborts the failed
// epoch and re-checkpoints the child. Linear child extraction would see
// the same child at two positions (or none, behind the loop); the analyzer
// must recognize the protocol calls and stay silent rather than guess.
type Guarded struct {
	Info    ckpt.Info
	Tag     uint64
	Next    *Guarded
	Session *ckpt.Session
}

// CheckpointInfo returns the object's checkpoint metadata.
func (g *Guarded) CheckpointInfo() *ckpt.Info { return &g.Info }

// CheckpointTypeID returns the object's stable type id.
func (g *Guarded) CheckpointTypeID() ckpt.TypeID { return typeGuarded }

// Record writes the tag, then the Next id.
func (g *Guarded) Record(e *wire.Encoder) {
	e.Uvarint(g.Tag)
	if g.Next != nil {
		e.Uvarint(g.Next.Info.ID())
	} else {
		e.Uvarint(ckpt.NilID)
	}
}

// Fold retries the child traversal once, aborting the failed epoch in
// between so its cleared flags are re-marked before the second attempt.
func (g *Guarded) Fold(w *ckpt.Writer) error {
	if g.Next == nil {
		return nil
	}
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		if err = w.Checkpoint(g.Next); err == nil {
			return nil
		}
		if g.Session != nil {
			g.Session.Abort(w.Epoch())
		}
	}
	return err
}

// Restore reads exactly what Record wrote.
func (g *Guarded) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	g.Tag = d.Uvarint()
	next, err := ckpt.ResolveAs[*Guarded](res, d.Uvarint())
	if err != nil {
		return err
	}
	g.Next = next
	return nil
}

var typeDeltaPage = ckpt.TypeIDOf("lintfixtures.DeltaPage")

// DeltaPage is a correct trio whose Fold adapts its traversal to the
// writer's delta layer: with a shadow cache attached it checkpoints the
// tail every epoch so the tail's patch chain always diffs against a fresh
// base; without one it only descends when the tail is modified. Both
// branches visit the same child, but linear extraction would count two
// visits against Record's single id — the analyzer must recognize the
// Writer.Shadow consultation and stay silent.
type DeltaPage struct {
	Info ckpt.Info
	Data []byte
	Tail *DeltaPage
}

// CheckpointInfo returns the page's checkpoint metadata.
func (p *DeltaPage) CheckpointInfo() *ckpt.Info { return &p.Info }

// CheckpointTypeID returns the page's stable type id.
func (p *DeltaPage) CheckpointTypeID() ckpt.TypeID { return typeDeltaPage }

// Record writes the fixed-width payload, then the Tail id.
func (p *DeltaPage) Record(e *wire.Encoder) {
	e.BytesField(p.Data)
	if p.Tail != nil {
		e.Uvarint(p.Tail.Info.ID())
	} else {
		e.Uvarint(ckpt.NilID)
	}
}

// Fold checkpoints the tail on both the delta-enabled and the plain path.
func (p *DeltaPage) Fold(w *ckpt.Writer) error {
	if p.Tail == nil {
		return nil
	}
	if w.Shadow() != nil {
		return w.Checkpoint(p.Tail)
	}
	if p.Tail.Info.Modified() {
		return w.Checkpoint(p.Tail)
	}
	return nil
}

// Restore reads the payload and tail id Record wrote.
func (p *DeltaPage) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	p.Data = d.BytesField()
	tail, err := ckpt.ResolveAs[*DeltaPage](res, d.Uvarint())
	if err != nil {
		return err
	}
	p.Tail = tail
	return nil
}

var typeCounted = ckpt.TypeIDOf("lintfixtures.Counted")

// Counted is a correct trio whose Restore reads its element count with
// wire.Decoder.Count, which moves the same bytes as the Uvarint Record
// wrote: the analyzer must stay silent on it.
type Counted struct {
	Info ckpt.Info
	Vals []uint64
}

// CheckpointInfo returns the object's checkpoint metadata.
func (c *Counted) CheckpointInfo() *ckpt.Info { return &c.Info }

// CheckpointTypeID returns the object's stable type id.
func (c *Counted) CheckpointTypeID() ckpt.TypeID { return typeCounted }

// Record writes the count, then the values.
func (c *Counted) Record(e *wire.Encoder) {
	e.Uvarint(uint64(len(c.Vals)))
	for _, v := range c.Vals {
		e.Uvarint(v)
	}
}

// Fold has no children to traverse.
func (c *Counted) Fold(*ckpt.Writer) error { return nil }

// Restore reads exactly what Record wrote, its loop bounded by the payload.
func (c *Counted) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	n := d.Count(1)
	c.Vals = c.Vals[:0]
	for i := 0; i < n; i++ {
		c.Vals = append(c.Vals, d.Uvarint())
	}
	return d.Err()
}

// RawCounted's Restore bounds its loops by raw decoded counts, through a
// local and in a range header: a six-byte payload claiming 2^40 values runs
// the first loop until memory gives out. The check needs no Record.
type RawCounted struct{ Vals []uint64 }

// Restore trusts the counts the payload claims.
func (c *RawCounted) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	n := int(d.Uvarint())
	for i := 0; i < n; i++ { // want `RawCounted\.Restore bounds a loop by a raw decoded count; read it with d\.Count`
		c.Vals = append(c.Vals, d.Uvarint())
	}
	for range d.Varint() { // want `RawCounted\.Restore bounds a loop by a raw decoded count`
		c.Vals = append(c.Vals, 0)
	}
	return d.Err()
}

// The chain catalog.
//
// A shared log interleaves the checkpoints of many independent domains. The
// log reads exactly one piece of structure out of the otherwise opaque epoch
// field: its high 32 bits name the segment's stream (docs/FORMAT.md; ckpt/tenant
// packs a tenant id there, and a single-domain log, whose epochs stay below
// 2^32, is all stream 0). A stream is the unit of every chain operation —
// recovery, rewind, retention — so a single-domain log is just a log with one
// stream. The catalog buckets the segment table by stream; within a stream
// file order is epoch order, so the buckets need no sort, and restarting N
// domains from one log costs O(segments), not O(N × segments).

package stablelog

import (
	"cmp"
	"fmt"
	"slices"

	"ickpt/ckpt"
)

// catalog is the segment table bucketed by stream: one EpochIndex per
// stream holding the positions of its segments.
type catalog struct {
	segs    []SegmentInfo // the segment table as of the last extend
	streams map[uint32]*EpochIndex
	ids     []uint32 // keys of streams, ascending
}

func streamOf(epoch uint64) uint32 { return uint32(epoch >> 32) }

// extend buckets segs[len(c.segs):] and adopts segs as the table.
func (c *catalog) extend(segs []SegmentInfo) {
	known := len(c.ids)
	for i := len(c.segs); i < len(segs); i++ {
		seg, id := segs[i], streamOf(segs[i].Epoch)
		x := c.streams[id]
		if x == nil {
			x = &EpochIndex{c: c}
			c.streams[id] = x
			c.ids = append(c.ids, id)
		}
		if n := len(x.pos); n > 0 {
			if prev := segs[x.pos[n-1]]; seg.Epoch <= prev.Epoch {
				x.err = fmt.Errorf("%w: stream %d: epoch not increasing at seq %d (%d after %d)",
					ErrIncoherent, id, seg.Seq, seg.Epoch, prev.Epoch)
				x.from = n
			}
		}
		if seg.Mode == ckpt.Full {
			x.fulls = append(x.fulls, int32(len(x.pos)))
		}
		x.pos = append(x.pos, int32(i))
	}
	if len(c.ids) > known {
		slices.Sort(c.ids)
	}
	c.segs = segs
}

// stream returns one stream's index; a stream with no segment has an empty
// one.
func (c *catalog) stream(id uint32) *EpochIndex {
	if x := c.streams[id]; x != nil {
		return x
	}
	return &EpochIndex{c: c}
}

// only returns the index of the log's one stream (an empty one for an empty
// log), or an error if several streams share the log: the calls that name no
// stream — EpochIndex, RecoveryRun, Recover — never answer with a run that
// mixes streams.
func (c *catalog) only() (*EpochIndex, error) {
	if len(c.ids) > 1 {
		return nil, fmt.Errorf("%w: %d streams share the log; address one by its stream id",
			ErrIncoherent, len(c.ids))
	}
	if len(c.ids) == 0 {
		return c.stream(0), nil
	}
	return c.streams[c.ids[0]], nil
}

// catalog returns the chain catalog, current with the segment table: built on
// first use, extended over the segments appended since the last call, and
// dropped when a rewrite replaces the table. Nothing on the append path
// touches it. Like the Log, it is not safe for concurrent use.
func (l *Log) catalog() *catalog {
	if l.cat == nil {
		l.cat = &catalog{streams: make(map[uint32]*EpochIndex)}
	}
	l.cat.extend(l.segs)
	return l.cat
}

// EpochIndex is one stream's epoch catalog: which epochs are rebuildable and
// which chain rebuilds each, derived from the segment index alone — no body
// is re-read. Chain selection is a binary search, O(log n) in the stream's
// retained segments. The index is the log's own: a later call that consults
// the catalog (RewindTo, StreamRun, EpochIndex, ...) extends it over newly
// appended segments, and Retain replaces it.
type EpochIndex struct {
	c     *catalog
	pos   []int32 // the stream's segments: positions in c.segs, in file order
	fulls []int32 // its full checkpoints: indexes into pos
	err   error   // the last epoch that does not increase, if any
	from  int     // pos[from:] is the history since err: all a search may reach
}

func (x *EpochIndex) seg(i int) SegmentInfo { return x.c.segs[x.pos[i]] }

// appendSegments appends the stream's segments pos[from:to] to dst.
func (x *EpochIndex) appendSegments(dst []SegmentInfo, from, to int) []SegmentInfo {
	for _, p := range x.pos[from:to] {
		dst = append(dst, x.c.segs[p])
	}
	return dst
}

// segments copies the stream's segments pos[from:to].
func (x *EpochIndex) segments(from, to int) []SegmentInfo {
	return x.appendSegments(make([]SegmentInfo, 0, to-from), from, to)
}

// copied is segments(from, to), or err.
func (x *EpochIndex) copied(from, to int, err error) ([]SegmentInfo, error) {
	if err != nil {
		return nil, err
	}
	return x.segments(from, to), nil
}

// latest locates the stream's latest replay run, pos[from:to]: its most
// recent full checkpoint and every later segment, or ErrNoFull.
func (x *EpochIndex) latest() (from, to int, err error) {
	if len(x.fulls) == 0 {
		return 0, 0, ErrNoFull
	}
	return int(x.fulls[len(x.fulls)-1]), len(x.pos), nil
}

// EpochIndex returns the epoch catalog of a log holding one stream (an empty
// catalog for an empty log). It fails with ErrIncoherent if the stream's
// epochs are not strictly increasing, or if several streams share the log —
// RewindTo picks a shared log's stream from the epoch itself.
func (l *Log) EpochIndex() (*EpochIndex, error) {
	if err := l.usable(); err != nil {
		return nil, err
	}
	x, err := l.catalog().only()
	if err != nil {
		return nil, err
	}
	if x.err != nil {
		return nil, x.err
	}
	return x, nil
}

// find returns the position in pos of the segment recorded at exactly epoch,
// or (insertion point, false), searching the history since the last epoch
// that did not increase.
func (x *EpochIndex) find(epoch uint64) (int, bool) {
	p, ok := slices.BinarySearchFunc(x.pos[x.from:], epoch, func(p int32, e uint64) int {
		return cmp.Compare(x.c.segs[p].Epoch, e)
	})
	return x.from + p, ok
}

// Epochs returns every rebuildable epoch in ascending order: the epochs of
// all segments at or after the first full checkpoint. Segments before the
// first full have no chain anchor and cannot be rebuilt.
func (x *EpochIndex) Epochs() []uint64 {
	if len(x.fulls) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(x.pos)-int(x.fulls[0]))
	for i := int(x.fulls[0]); i < len(x.pos); i++ {
		out = append(out, x.seg(i).Epoch)
	}
	return out
}

// unavailable builds the structured not-retained error for epoch.
func (x *EpochIndex) unavailable(epoch uint64) error {
	e := &EpochUnavailableError{Epoch: epoch}
	if len(x.fulls) == 0 {
		return e
	}
	first := int(x.fulls[0])
	p, _ := x.find(epoch)
	if p-1 >= first {
		e.Before = x.seg(p - 1).Epoch
	}
	if after := max(p, first); after < len(x.pos) && x.seg(after).Epoch > epoch {
		e.After = x.seg(after).Epoch
	}
	return e
}

// Chain returns the cheapest replay chain for epoch: the nearest full
// checkpoint at or before it, through the segment recorded at exactly that
// epoch. A target that is not a retained, rebuildable epoch fails with an
// *EpochUnavailableError naming the nearest retained neighbors; a stream
// with no full checkpoint at all fails with ErrNoFull.
//
// A stream whose epochs go backwards — a writer that started its numbering
// over — holds the same epoch twice, so only its history since the last
// such point is addressable: a chain inside it is found as on any stream
// (its latest run among them, so such a stream still recovers), and a target
// or chain reaching back across it fails with ErrIncoherent.
func (x *EpochIndex) Chain(epoch uint64) ([]SegmentInfo, error) {
	return x.copied(x.chain(epoch))
}

// chain locates Chain's answer for epoch, pos[from:to], without copying it.
func (x *EpochIndex) chain(epoch uint64) (from, to int, err error) {
	if len(x.fulls) == 0 && x.err == nil {
		return 0, 0, ErrNoFull
	}
	p, ok := x.find(epoch)
	// Last full at or before p.
	fi, found := slices.BinarySearch(x.fulls, int32(p))
	if !found {
		fi--
	}
	if !ok || fi < 0 || int(x.fulls[fi]) < x.from {
		if x.err != nil {
			return 0, 0, x.err
		}
		return 0, 0, x.unavailable(epoch)
	}
	return int(x.fulls[fi]), p + 1, nil
}

// StreamIDs returns the streams with at least one segment in the log, in
// ascending order, including streams that have no full checkpoint. The slice
// is the caller's.
//
// StreamIDs and StreamRun are lookups in the catalog cached on the Log: the
// first call costs one pass over the segment table, a call after further
// appends one pass over the new segments, and Retain drops it. They follow
// the Log's concurrency rule — no calls concurrent with each other or with
// Append.
func (l *Log) StreamIDs() []uint32 {
	return slices.Clone(l.catalog().ids)
}

// StreamRun returns the latest replay chain of one stream: its most recent
// full checkpoint and every later segment of the same stream, in log order.
// Other streams' segments interleave, so sequence numbers increase but need
// not be consecutive. The slice is the caller's. It returns ErrNoFull if the
// stream has no full checkpoint (or no segment at all).
func (l *Log) StreamRun(id uint32) ([]SegmentInfo, error) {
	x := l.catalog().stream(id)
	return x.copied(x.latest())
}

// RecoveryRun returns the segments needed to reconstruct the latest state of
// a log holding one stream: the most recent full checkpoint and every
// incremental after it, in order. It returns ErrNoFull if the log contains
// no full checkpoint, and an error wrapping ErrIncoherent that names the
// stream count if several streams share the log (see StreamRun).
func (l *Log) RecoveryRun() ([]SegmentInfo, error) {
	x, err := l.catalog().only()
	if err != nil {
		return nil, err
	}
	return x.copied(x.latest())
}

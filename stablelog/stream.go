// Per-stream chain index.
//
// A shared log interleaves the checkpoints of many independent domains. The
// log reads exactly one piece of structure out of the otherwise opaque epoch
// field: its high 32 bits name the segment's stream (docs/FORMAT.md; ckpt/tenant
// packs a tenant id there, and a single-domain log, whose epochs stay below
// 2^32, is all stream 0). The index answers "which streams are in this log"
// and "what is stream s's latest replay chain" in time proportional to the
// answer, so restarting N domains from one log costs O(segments), not
// O(N × segments).

package stablelog

import (
	"slices"

	"ickpt/ckpt"
)

// streamIndex maps each stream to the positions in Log.segs of its latest
// run: its most recent full checkpoint and every later segment of the same
// stream. A stream with no full checkpoint yet has an empty run.
type streamIndex struct {
	runs map[uint32][]int32
	ids  []uint32 // keys of runs, ascending
	n    int      // segments covered
}

func streamOf(epoch uint64) uint32 { return uint32(epoch >> 32) }

// extend indexes segs[x.n:].
func (x *streamIndex) extend(segs []SegmentInfo) {
	known := len(x.ids)
	for i := x.n; i < len(segs); i++ {
		id := streamOf(segs[i].Epoch)
		run, seen := x.runs[id]
		if !seen {
			x.ids = append(x.ids, id)
		}
		switch {
		case segs[i].Mode == ckpt.Full:
			run = append(run[:0], int32(i))
		case len(run) > 0:
			run = append(run, int32(i))
		}
		x.runs[id] = run
	}
	if len(x.ids) > known {
		slices.Sort(x.ids)
	}
	x.n = len(segs)
}

// streams returns the stream index, current with the segment table. Like
// EpochIndex it is built on first use, extended over the segments appended
// since the last call, and dropped when a rewrite replaces the table; nothing
// on the append path touches it.
func (l *Log) streams() *streamIndex {
	if l.str == nil {
		l.str = &streamIndex{runs: make(map[uint32][]int32)}
	}
	l.str.extend(l.segs)
	return l.str
}

// StreamIDs returns the streams with at least one segment in the log, in
// ascending order, including streams that have no full checkpoint. The slice
// is the caller's.
//
// StreamIDs and StreamRun read an index cached on the Log: the first call
// costs one pass over the segment table, a call after further appends one
// pass over the new segments, and Retain drops it. They follow the Log's
// concurrency rule — no calls concurrent with each other or with Append.
func (l *Log) StreamIDs() []uint32 {
	return slices.Clone(l.streams().ids)
}

// StreamRun returns the latest replay chain of one stream: its most recent
// full checkpoint and every later segment of the same stream, in log order.
// Other streams' segments interleave, so sequence numbers increase but need
// not be consecutive. The slice is the caller's. It returns ErrNoFull if the
// stream has no full checkpoint (or no segment at all).
func (l *Log) StreamRun(id uint32) ([]SegmentInfo, error) {
	pos := l.streams().runs[id]
	if len(pos) == 0 {
		return nil, ErrNoFull
	}
	run := make([]SegmentInfo, len(pos))
	for i, p := range pos {
		run[i] = l.segs[p]
	}
	return run, nil
}

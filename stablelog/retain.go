// Retention and time-travel recovery.
//
// A flat log answers exactly one question: "what was the latest state?".
// Retention keeps it able to answer "what was the state at epoch e?" for a
// useful set of e without keeping everything: Retain rewrites the log to a
// policy-chosen subset of its full+incremental chains, and RewindTo replays
// the cheapest retained chain ending at a requested epoch. Both work on one
// stream at a time (stream.go), so a shared log retains and rewinds each of
// its domains exactly as a log holding that domain alone would. The Binomial
// policy follows the checkpoint-placement theory of binomial /
// divide-and-conquer checkpointing: one chain anchor per power-of-two age
// bucket, so rewinding T epochs back costs O(log T) retained storage per
// stream and a bounded replay.
package stablelog

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"

	"ickpt/ckpt"
)

// RetentionPolicy selects which segments Retain keeps.
type RetentionPolicy interface {
	// Keep returns one mark per segment (aligned with segs: marks[i]
	// corresponds to segs[i]) saying whether the policy wants it retained.
	// Retain calls it once per stream with that stream's segments alone, in
	// log order, and post-processes the marks: the stream's latest recovery
	// run is always kept regardless, and an incremental whose chain prefix
	// was dropped is dropped too — a chain is only replayable whole, so a
	// policy cannot punch holes in one.
	Keep(segs []SegmentInfo) []bool
}

// KeepLastRun retains only the latest recovery run: Retain(KeepLastRun{}) is
// compaction. It marks nothing itself; Retain's always-keep-the-latest-run
// rule does all the work.
type KeepLastRun struct{}

// Keep implements RetentionPolicy.
func (KeepLastRun) Keep(segs []SegmentInfo) []bool { return make([]bool, len(segs)) }

// Binomial retains checkpoints under a logarithmic schedule: every epoch
// within Window of the head is kept, and beyond the window one full
// checkpoint (plus Tail incremental successors) is kept per power-of-two
// age bucket — ages in [2^k, 2^(k+1)) share one anchor. Retained segments
// therefore grow O(log T) in the distance T to the oldest epoch, the
// binomial/divide-and-conquer checkpointing bound: recent history rewinds
// with epoch precision, older history at coarsening granularity.
type Binomial struct {
	// Window is how many epochs behind the head are kept unconditionally.
	// Zero means the default of 8.
	Window int
	// Tail is how many incremental successors are kept after each retained
	// out-of-window full, widening the rewindable epochs near old anchors.
	Tail int
}

// Keep implements RetentionPolicy.
func (b Binomial) Keep(segs []SegmentInfo) []bool {
	keep := make([]bool, len(segs))
	if len(segs) == 0 {
		return keep
	}
	window := b.Window
	if window <= 0 {
		window = 8
	}
	tail := b.Tail
	if tail < 0 {
		tail = 0
	}
	head := segs[len(segs)-1].Epoch
	// The recent window, by epoch distance from the head.
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].Epoch > head || head-segs[i].Epoch >= uint64(window) {
			break
		}
		keep[i] = true
	}
	// One full per power-of-two age bucket beyond the window, youngest
	// full in the bucket wins; a descending scan sees it first.
	bucketDone := make(map[int]bool)
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].Mode != ckpt.Full || segs[i].Epoch > head {
			continue
		}
		age := head - segs[i].Epoch
		if age < uint64(window) {
			continue
		}
		k := bits.Len64(age) // bucket: floor(log2(age))
		if bucketDone[k] {
			continue
		}
		bucketDone[k] = true
		keep[i] = true
		for j := i + 1; j <= i+tail && j < len(segs); j++ {
			if segs[j].Mode != ckpt.Incremental {
				break
			}
			keep[j] = true
		}
	}
	// Chain closure: an incremental kept above is only replayable with its
	// whole prefix back to a full, so pull the prefix in. The descending
	// scan propagates transitively and stops at each full.
	for i := len(segs) - 1; i > 0; i-- {
		if keep[i] && segs[i].Mode == ckpt.Incremental && !keep[i-1] {
			keep[i-1] = true
		}
	}
	return keep
}

// Retain rewrites the log to the subset of segments the policy keeps,
// renumbering segments from 1 and preserving epochs, modes and the
// interleaving of streams. It decides per stream: the policy sees one
// stream's segments at a time, that stream's latest recovery run is always
// kept, so Retain never loses the ability to recover any stream's newest
// state, and an incremental whose prefix in its stream was dropped is
// dropped with it (see RetentionPolicy.Keep) — so a stream with no full
// checkpoint, which has nothing replayable, is dropped whole. A log with no
// full checkpoint in any stream fails with ErrNoFull and is left alone.
//
// The rewrite is atomic and durable: it writes a sibling temporary file,
// fsyncs it, renames it over the log, and fsyncs the parent directory so the
// rename cannot be undone by a power cut. When Retain returns nil, the
// retained log is what any future Open sees. A `<path>.compact` file left
// behind by a rewrite that crashed before its rename is garbage by
// construction (the rename is the commit point) and is removed before
// retrying, so a crashed rewrite never wedges the log.
//
// After the rename has committed, a failure to fsync the directory or close
// the replaced handle is reported (wrapped in ErrIO) but leaves the log
// consistent and usable over the new file; a failure to reopen or rescan the
// renamed file poisons the log — the old handle points at an unlinked inode
// no Open will ever see, so every later operation returns ErrWedged rather
// than silently writing into the void.
func (l *Log) Retain(policy RetentionPolicy) error {
	if err := l.usable(); err != nil {
		return err
	}
	c := l.catalog()
	segs := c.segs
	kept := make([]bool, len(segs))
	anchored := false
	for _, id := range c.ids {
		x := c.streams[id]
		own := x.segments(0, len(x.pos))
		marked := policy.Keep(own)
		if len(marked) != len(own) {
			return fmt.Errorf("stablelog: retention policy returned %d marks for the %d segments of stream %d",
				len(marked), len(own), id)
		}
		latest := len(own) // the latest run starts here, if there is one
		if n := len(x.fulls); n > 0 {
			latest, anchored = int(x.fulls[n-1]), true
		}
		// Chain closure repair: a kept incremental survives only if its
		// whole prefix in the stream back to a full survived.
		for i, p := range x.pos {
			kept[p] = (marked[i] || i >= latest) &&
				(own[i].Mode == ckpt.Full || i > 0 && kept[x.pos[i-1]])
		}
	}
	if !anchored {
		return ErrNoFull
	}

	tmp := l.path + ".compact"
	if err := l.fs.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("remove stale compact file: %w", err)
	}
	nl, err := Create(tmp, WithFS(l.fs))
	if err != nil {
		return err
	}
	defer l.fs.Remove(tmp)
	for i, seg := range segs {
		if !kept[i] {
			continue
		}
		body, err := l.Read(seg.Seq)
		if err != nil {
			nl.Close()
			return err
		}
		if _, err := nl.Append(seg.Mode, seg.Epoch, body); err != nil {
			nl.Close()
			return err
		}
	}
	if err := nl.f.Sync(); err != nil {
		nl.Close()
		return err
	}
	if err := nl.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		return err
	}
	return l.commitRewrite()
}

// commitRewrite finishes a rename-over rewrite: hardens the directory entry
// and swaps the in-memory handle onto the renamed file. The rename has
// already committed, so the old inode is unlinked; whatever fails here, l.f
// must never be left pointing at it. Either the handle lands on the new file
// (any fsync/close fault is reported but the log stays usable) or the log is
// poisoned with ErrWedged.
func (l *Log) commitRewrite() error {
	var commitErr error
	// Harden the directory entry so the pre-rewrite log cannot resurrect
	// (or the file vanish) after a crash. The entry change itself is
	// already visible; a failed barrier is transient and retryable via
	// SyncDir, so it does not wedge the log.
	if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
		commitErr = fmt.Errorf("sync dir after rewrite rename: %w: %w", ErrIO, err)
	}
	if err := l.f.Close(); err != nil && commitErr == nil {
		commitErr = fmt.Errorf("close replaced log handle: %w: %w", ErrIO, err)
	}
	l.f = nil
	l.cat = nil
	l.kept = nil
	f, err := l.fs.OpenFile(l.path, os.O_RDWR, 0)
	if err != nil {
		return l.poison(fmt.Errorf("reopen renamed log: %w", err))
	}
	l.f = f
	l.segs = nil
	if err := l.scan(false, scanWindowSize, 0); err != nil { // keeps nothing
		return l.poison(fmt.Errorf("rescan renamed log: %w", err))
	}
	return commitErr
}

// EpochUnavailableError reports a rewind target that is not retained —
// never written, aged out by a retention policy, or aborted before commit —
// along with the nearest retained epochs on each side (0 when there is none)
// so a caller can re-target. It matches ErrEpochUnavailable under errors.Is.
type EpochUnavailableError struct {
	Epoch  uint64 // the requested epoch
	Before uint64 // nearest retained epoch < Epoch, 0 if none
	After  uint64 // nearest retained epoch > Epoch, 0 if none
}

// Error implements error.
func (e *EpochUnavailableError) Error() string {
	msg := fmt.Sprintf("%v: %d", ErrEpochUnavailable, e.Epoch)
	switch {
	case e.Before != 0 && e.After != 0:
		return fmt.Sprintf("%s (nearest retained: %d, %d)", msg, e.Before, e.After)
	case e.Before != 0:
		return fmt.Sprintf("%s (nearest retained: %d)", msg, e.Before)
	case e.After != 0:
		return fmt.Sprintf("%s (nearest retained: %d)", msg, e.After)
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrEpochUnavailable) hold.
func (e *EpochUnavailableError) Unwrap() error { return ErrEpochUnavailable }

// RewindStats summarizes what a RewindTo replayed.
type RewindStats struct {
	// Segments is the chain length: one full plus its incremental suffix.
	Segments int
	// Bytes is the total payload bytes read and applied.
	Bytes int64
	// BaseEpoch is the epoch of the full checkpoint anchoring the chain.
	BaseEpoch uint64
}

// RewindTo rebuilds into rb the state recorded at epoch — time travel over
// the retained history of the epoch's stream (its high 32 bits; on a shared
// log the other streams are not consulted). It selects the cheapest retained
// chain (the nearest full checkpoint of the stream at or before epoch, plus
// the incremental suffix through epoch) via the stream's epoch catalog,
// validates it, and replays it. Rewinding a stream to its latest epoch is
// recovering it.
//
// The replay is atomic on rb: validation runs first, every payload is read
// (a payload Open kept in place, the rest in one gathered read, each payload
// CRC-checked) before anything is applied, and the bodies go through
// ckpt.Rebuilder.ApplyRun, which stages the whole run beside rb's state and
// swaps it in — so an unavailable epoch, a read fault, or a corrupt body
// leaves rb exactly as it was. rb need not be fresh: a chain starts with a
// full checkpoint, which resets the rebuilder, so one rebuilder can rewind
// forward and backward repeatedly.
//
// A target epoch that was aged out by retention — or aborted and never
// committed — fails with an *EpochUnavailableError carrying the nearest
// retained epochs (see ErrEpochUnavailable). On a stream whose epochs go
// backwards somewhere, a chain reaching back across the last such point
// fails with ErrIncoherent (see EpochIndex.Chain); its latest run, like any
// chain after that point, still replays.
func (l *Log) RewindTo(rb *ckpt.Rebuilder, epoch uint64) (RewindStats, error) {
	var st RewindStats
	if err := l.usable(); err != nil {
		return st, err
	}
	x := l.catalog().stream(streamOf(epoch))
	from, to, err := x.chain(epoch)
	if err == nil {
		err = l.replay(rb, x, from, to)
	}
	if err != nil {
		return st, err
	}
	st.Segments = len(l.chain)
	st.BaseEpoch = l.chain[0].Epoch
	for _, seg := range l.chain {
		st.Bytes += int64(seg.Length)
	}
	return st, nil
}

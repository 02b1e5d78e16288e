// Retention and time-travel recovery.
//
// A flat log answers exactly one question: "what was the latest state?".
// Retention keeps it able to answer "what was the state at epoch e?" for a
// useful set of e without keeping everything: Retain rewrites the log to a
// policy-chosen subset of its full+incremental chains, and RewindTo replays
// the cheapest retained chain ending at a requested epoch. The Binomial
// policy follows the checkpoint-placement theory of binomial /
// divide-and-conquer checkpointing: one chain anchor per power-of-two age
// bucket, so rewinding T epochs back costs O(log T) retained storage and a
// bounded replay.
package stablelog

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"ickpt/ckpt"
)

// RetentionPolicy selects which segments Retain keeps.
type RetentionPolicy interface {
	// Keep returns one mark per segment (aligned with segs: marks[i]
	// corresponds to segs[i]) saying whether the policy wants it retained.
	// Retain post-processes the marks: the latest recovery run is always
	// kept regardless, and an incremental whose chain prefix was dropped is
	// dropped too — a chain is only replayable whole, so a policy cannot
	// punch holes in one.
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
// renumbering segments from 1 and preserving epochs and modes. The latest
// recovery run is always kept, so Retain never loses the ability to Recover
// the newest state; an incremental whose prefix the policy dropped is
// dropped with it (see RetentionPolicy.Keep).
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
	run, err := l.RecoveryRun()
	if err != nil {
		return err
	}
	segs := l.Segments()
	marked := policy.Keep(segs)
	if len(marked) != len(segs) {
		return fmt.Errorf("stablelog: retention policy returned %d marks for %d segments",
			len(marked), len(segs))
	}
	for _, seg := range run {
		marked[seg.Seq-1] = true
	}
	// Chain closure repair: a kept incremental survives only if its whole
	// prefix back to a full survived.
	kept := make([]bool, len(segs))
	for i, m := range marked {
		if m && (segs[i].Mode == ckpt.Full || (i > 0 && kept[i-1])) {
			kept[i] = true
		}
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
	l.idx, l.idxLen, l.str = nil, 0, nil
	f, err := l.fs.OpenFile(l.path, os.O_RDWR, 0)
	if err != nil {
		return l.poison(fmt.Errorf("reopen renamed log: %w", err))
	}
	l.f = f
	l.segs = nil
	if err := l.scan(false, scanWindowSize); err != nil {
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

// EpochIndex is the log's epoch catalog: which epochs are rebuildable and
// which chain rebuilds each, derived from the segment index alone — no body
// is re-read. Chain selection is a binary search, O(log n) in the number of
// retained segments. The index reflects the log as of the EpochIndex call
// that produced it; Append extends it and Retain rebuilds it.
type EpochIndex struct {
	segs    []SegmentInfo
	fullPos []int // positions of full checkpoints, ascending
}

// newEpochIndex validates that epochs are strictly increasing across the
// segments (the invariant every search below leans on) and builds the
// catalog.
func newEpochIndex(segs []SegmentInfo) (*EpochIndex, error) {
	x := &EpochIndex{segs: segs}
	for i, seg := range segs {
		if i > 0 && seg.Epoch <= segs[i-1].Epoch {
			return nil, fmt.Errorf("%w: epoch not increasing at seq %d (%d after %d)",
				ErrIncoherent, seg.Seq, seg.Epoch, segs[i-1].Epoch)
		}
		if seg.Mode == ckpt.Full {
			x.fullPos = append(x.fullPos, i)
		}
	}
	return x, nil
}

// extend appends newly scanned segments to the catalog.
func (x *EpochIndex) extend(segs []SegmentInfo) error {
	for _, seg := range segs {
		if n := len(x.segs); n > 0 && seg.Epoch <= x.segs[n-1].Epoch {
			return fmt.Errorf("%w: epoch not increasing at seq %d (%d after %d)",
				ErrIncoherent, seg.Seq, seg.Epoch, x.segs[n-1].Epoch)
		}
		if seg.Mode == ckpt.Full {
			x.fullPos = append(x.fullPos, len(x.segs))
		}
		x.segs = append(x.segs, seg)
	}
	return nil
}

// EpochIndex returns the log's epoch catalog, building it on first use and
// extending it incrementally as segments are appended. It fails with
// ErrIncoherent if the log's epochs are not strictly increasing.
func (l *Log) EpochIndex() (*EpochIndex, error) {
	if err := l.usable(); err != nil {
		return nil, err
	}
	switch {
	case l.idx != nil && l.idxLen == len(l.segs):
	case l.idx != nil && l.idxLen < len(l.segs):
		if err := l.idx.extend(l.segs[l.idxLen:]); err != nil {
			l.idx, l.idxLen = nil, 0
			return nil, err
		}
		l.idxLen = len(l.segs)
	default:
		idx, err := newEpochIndex(l.Segments())
		if err != nil {
			return nil, err
		}
		l.idx, l.idxLen = idx, len(l.segs)
	}
	return l.idx, nil
}

// pos returns the position of the segment recorded at exactly epoch, or
// (insertion point, false).
func (x *EpochIndex) pos(epoch uint64) (int, bool) {
	return slices.BinarySearchFunc(x.segs, epoch, func(s SegmentInfo, e uint64) int {
		switch {
		case s.Epoch < e:
			return -1
		case s.Epoch > e:
			return 1
		}
		return 0
	})
}

// Epochs returns every rebuildable epoch in ascending order: the epochs of
// all segments at or after the first full checkpoint. Segments before the
// first full have no chain anchor and cannot be rebuilt.
func (x *EpochIndex) Epochs() []uint64 {
	if len(x.fullPos) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(x.segs)-x.fullPos[0])
	for _, seg := range x.segs[x.fullPos[0]:] {
		out = append(out, seg.Epoch)
	}
	return out
}

// Latest returns the newest rebuildable epoch, or (0, false) if none.
func (x *EpochIndex) Latest() (uint64, bool) {
	if len(x.fullPos) == 0 {
		return 0, false
	}
	return x.segs[len(x.segs)-1].Epoch, true
}

// unavailable builds the structured not-retained error for epoch.
func (x *EpochIndex) unavailable(epoch uint64) error {
	e := &EpochUnavailableError{Epoch: epoch}
	if len(x.fullPos) == 0 {
		return e
	}
	first := x.fullPos[0]
	p, _ := x.pos(epoch)
	if p-1 >= first {
		e.Before = x.segs[p-1].Epoch
	}
	if after := max(p, first); after < len(x.segs) && x.segs[after].Epoch > epoch {
		e.After = x.segs[after].Epoch
	}
	return e
}

// Chain returns the cheapest replay chain for epoch: the nearest full
// checkpoint at or before it, through the segment recorded at exactly that
// epoch. A target that is not a retained, rebuildable epoch fails with an
// *EpochUnavailableError naming the nearest retained neighbors; a log with
// no full checkpoint at all fails with ErrNoFull.
func (x *EpochIndex) Chain(epoch uint64) ([]SegmentInfo, error) {
	if len(x.fullPos) == 0 {
		return nil, ErrNoFull
	}
	p, ok := x.pos(epoch)
	if !ok || p < x.fullPos[0] {
		return nil, x.unavailable(epoch)
	}
	// Last full at or before p.
	fi, found := slices.BinarySearch(x.fullPos, p)
	if !found {
		fi--
	}
	f := x.fullPos[fi]
	return slices.Clone(x.segs[f : p+1]), nil
}

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
// the retained history. It selects the cheapest retained chain (the nearest
// full checkpoint at or before epoch, plus the incremental suffix through
// epoch) via the epoch catalog, validates it, and replays it.
//
// The replay is atomic on rb: validation runs first, every payload is read
// (ReadRun: one gathered read, each payload CRC-checked) before anything is
// applied, and the bodies go through ckpt.Rebuilder.ApplyRun, which stages
// the whole run beside rb's state and swaps it in — so an unavailable epoch,
// a read fault, or a corrupt body leaves rb exactly as it was. rb need not be fresh: a chain
// starts with a full checkpoint, which resets the rebuilder, so one
// rebuilder can rewind forward and backward repeatedly.
//
// A target epoch that was aged out by retention — or aborted and never
// committed — fails with an *EpochUnavailableError carrying the nearest
// retained epochs (see ErrEpochUnavailable).
func (l *Log) RewindTo(rb *ckpt.Rebuilder, epoch uint64) (RewindStats, error) {
	var st RewindStats
	if err := l.usable(); err != nil {
		return st, err
	}
	idx, err := l.EpochIndex()
	if err != nil {
		return st, err
	}
	chain, err := idx.Chain(epoch)
	if err != nil {
		return st, err
	}
	if err := l.replayRun(rb, chain); err != nil {
		return st, err
	}
	st.Segments = len(chain)
	st.BaseEpoch = chain[0].Epoch
	for _, seg := range chain {
		st.Bytes += int64(seg.Length)
	}
	return st, nil
}

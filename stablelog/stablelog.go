// Package stablelog persists checkpoint bodies to stable storage.
//
// A log file is a header followed by a sequence of CRC-framed segments, one
// per checkpoint body. The paper's implementation writes checkpoints "from
// the output stream to stable storage asynchronously"; this package provides
// both a synchronous [Log] and an [AsyncWriter] that defers the copy to a
// background goroutine, unblocking the application as soon as the in-memory
// body is constructed.
//
// Recovery tolerates a torn tail: a crash while appending leaves a final
// partial or corrupt segment, which Open detects (via length and CRC checks)
// and can truncate away, exposing the longest consistent prefix. Open reads
// the file once, front to back, through a fixed-size window — every header
// parsed and every payload's CRC verified out of the same large reads — so
// what it allocates does not depend on any length field in the file. On a
// log several streams share, Open also keeps the payloads it verifies, from
// the second stream's first segment on and within a fixed budget, so that
// restarting every stream reads each byte of the file once: a replay reads
// a kept payload in place instead of from the file, until the handle's first
// write.
//
// Every chain operation runs per stream — the high 32 bits of a segment's
// epoch (docs/FORMAT.md) — so a log shared by many domains gets the same
// recovery, rewind and retention as a single-domain log, which is a log with
// one stream. The questions a restart asks — which streams share this log
// ([Log.StreamIDs]), each one's latest chain ([Log.StreamRun]), which epochs
// are rebuildable and by which chain ([Log.RewindTo], [EpochIndex]) — are
// answered from one catalog cached on the Log: built on first use, extended
// over newly appended segments on later calls, and dropped when Retain
// rewrites the file. Appending never touches it.
//
// The exact durability guarantees — which operations fsync which file or
// directory, and what survives a power cut — are documented in
// docs/DURABILITY.md and enforced by the crash sweep in crashsweep_test.go,
// which replays every possible power-cut point through internal/faultfs.
package stablelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
)

// File layout constants.
const (
	fileMagic    = "ICKPTLG1"
	segmentMagic = 0x5345474d // "SEGM"
	// segment header: magic u32, seq u64, epoch u64, mode u8, len u32, crc u32
	segmentHeaderSize = 4 + 8 + 8 + 1 + 4 + 4
)

// Errors reported by the log.
var (
	// ErrCorrupt reports a segment whose framing or checksum is invalid.
	ErrCorrupt = errors.New("stablelog: corrupt segment")
	// ErrIO reports a transient I/O failure (for example EIO from a flaky
	// device). It is deliberately distinct from ErrCorrupt: an I/O error
	// says nothing about the bytes on disk, so recovery must not truncate
	// — the caller should retry or surface the fault instead.
	ErrIO = errors.New("stablelog: i/o error")
	// ErrNotFound reports a missing segment sequence number.
	ErrNotFound = errors.New("stablelog: segment not found")
	// ErrNoFull reports a log with no full checkpoint to recover from.
	ErrNoFull = errors.New("stablelog: no full checkpoint in log")
	// ErrClosed reports use of a closed log or writer.
	ErrClosed = errors.New("stablelog: closed")
	// ErrWedged reports a log whose in-memory handle was lost after a
	// compaction/retention rename committed: the rewrite is durable on disk,
	// but reopening or rescanning the renamed file failed, so the old handle
	// (which points at the unlinked pre-rewrite inode) cannot be used. Every
	// subsequent operation fails with this error; Close and reopen the path
	// to continue. Without this guard, an Append after such a failure would
	// write to an unlinked file no future Open could ever see.
	ErrWedged = errors.New("stablelog: log handle lost after rewrite; reopen the path")
	// ErrIncoherent reports a recovery run or rewind chain whose segments do
	// not form a valid chain: epochs not strictly increasing within a stream,
	// an incremental not anchored to a preceding full, or a run that mixes
	// streams — including a call that names no stream on a log several
	// streams share. A CRC-valid but hand-edited (or collision-corrupted)
	// history is rejected rather than silently applied.
	ErrIncoherent = errors.New("stablelog: incoherent segment chain")
	// ErrEpochUnavailable reports a RewindTo target that is not retained:
	// either never written or aged out by a retention policy. The concrete
	// error is an *EpochUnavailableError carrying the nearest retained
	// neighbors.
	ErrEpochUnavailable = errors.New("stablelog: epoch not retained")
)

// SegmentInfo describes one checkpoint segment in the log.
type SegmentInfo struct {
	Seq    uint64    // position in the log, starting at 1
	Epoch  uint64    // writer epoch recorded at append time
	Offset int64     // file offset of the segment header
	Length int       // payload length in bytes
	CRC    uint32    // CRC-32 (IEEE) of the payload
	Mode   ckpt.Mode // full or incremental
}

// Log is an append-only checkpoint log backed by a single file.
//
// Log is not safe for concurrent use; wrap it in an AsyncWriter for
// background appends.
type Log struct {
	fs     faultfs.FS
	f      faultfs.File
	path   string
	segs   []SegmentInfo
	end    int64 // offset one past the last valid segment
	sync   bool
	closed bool
	wedged error // non-nil: handle lost after a rewrite rename (ErrWedged)

	hdr [segmentHeaderSize]byte // Append's header scratch

	// Staged segments (see stage): wbuf holds them framed, back to back,
	// bound for the file at l.end; pend holds their index entries. Neither
	// l.segs nor l.end moves before flushStaged has written them.
	wbuf []byte
	pend []SegmentInfo

	cat   *catalog      // per-stream chain catalog, maintained by catalog (see stream.go)
	chain []SegmentInfo // replay's scratch: the chain it replays, reused from call to call

	// kept holds, back to back, the payloads of segs[keptFrom:] as Open's
	// scan verified them — on a shared log, every payload from the second
	// stream's first segment on (see keepBudget) — so that readRun serves a
	// restart's chains in place, without reading the file again. nil when the
	// handle keeps nothing; the first write, Retain's rewrite and Close drop
	// it. A rebuilder that replayed version-1 bodies from it aliases it, and
	// keeps the whole allocation alive until the rebuilder is dropped.
	kept     []byte
	keptFrom int
}

// usable reports why the log cannot be operated on, or nil.
func (l *Log) usable() error {
	if l.wedged != nil {
		return l.wedged
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// poison marks the log permanently unusable and returns the stored error.
func (l *Log) poison(cause error) error {
	l.wedged = fmt.Errorf("%w: %w", ErrWedged, cause)
	return l.wedged
}

// Option configures Open and Create.
type Option interface {
	apply(*openOptions)
}

type openOptions struct {
	truncateTorn bool
	sync         bool
	fs           faultfs.FS
}

type optionFunc func(*openOptions)

func (f optionFunc) apply(o *openOptions) { f(o) }

// WithTruncateTorn makes Open discard a trailing corrupt or partial segment
// instead of failing, recovering the longest consistent prefix.
func WithTruncateTorn() Option {
	return optionFunc(func(o *openOptions) { o.truncateTorn = true })
}

// WithSync makes every Append fsync the file before returning.
func WithSync() Option {
	return optionFunc(func(o *openOptions) { o.sync = true })
}

// WithFS substitutes the filesystem the log runs on. The default is the real
// OS; the fault-injection tests pass a faultfs.Mem to replay power cuts and
// inject I/O errors.
func WithFS(fsys faultfs.FS) Option {
	return optionFunc(func(o *openOptions) { o.fs = fsys })
}

func resolveOptions(opts []Option) openOptions {
	oo := openOptions{fs: faultfs.OS{}}
	for _, o := range opts {
		o.apply(&oo)
	}
	return oo
}

// Create creates a new, empty log at path, failing if the file exists. The
// empty log is durable when Create returns: the header is fsynced and so is
// the parent directory, so a power cut cannot make the file vanish.
func Create(path string, opts ...Option) (*Log, error) {
	oo := resolveOptions(opts)
	f, err := oo.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("create log: %w", err)
	}
	fail := func(err error) (*Log, error) {
		f.Close()
		_ = oo.fs.Remove(path)
		return nil, fmt.Errorf("create log: %w", err)
	}
	if _, err := f.Write([]byte(fileMagic)); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := oo.fs.SyncDir(filepath.Dir(path)); err != nil {
		return fail(err)
	}
	return &Log{fs: oo.fs, f: f, path: path, end: int64(len(fileMagic)), sync: oo.sync}, nil
}

// Open opens an existing log, scanning and validating every segment.
// Without WithTruncateTorn, any corruption is an error; with it, the log is
// truncated at the first invalid segment. Transient read failures (ErrIO)
// are never grounds for truncation.
//
// On a log several streams share, Open keeps every payload from the second
// stream's first segment on, copied out of the scan's window as it checksums
// them, so that restarting the streams one by one reads each byte of the
// file once (see RewindTo); a single-stream log keeps nothing.
func Open(path string, opts ...Option) (*Log, error) {
	return open(path, scanWindowSize, keepBudget, opts)
}

// open is Open with the scan's window size and keep budget as parameters, so
// tests can put window edges anywhere in a small file and a log's size on
// either side of the budget.
func open(path string, window, budget int, opts []Option) (*Log, error) {
	oo := resolveOptions(opts)
	f, err := oo.fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("open log: %w", err)
	}
	l := &Log{fs: oo.fs, f: f, path: path, sync: oo.sync}
	if err := l.scan(oo.truncateTorn, window, budget); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// scan reads and validates the file, populating the segment index, in one
// forward pass through a scanWindow of at most window bytes: no per-segment
// read, no per-segment allocation, and every payload's CRC still checked.
//
// At the first segment of a second stream, scan decides whether to keep
// payloads (l.kept): if the file's bytes from that segment on fit budget, it
// allocates that many once and copies every payload from there on into it
// as it checksums them; if not, it keeps nothing.
//
// Only genuine framing, checksum, or end-of-file corruption may truncate
// under truncateTorn; a transient read failure (ErrIO) aborts the scan
// without touching the file, because the bytes on disk may be perfectly
// good.
func (l *Log) scan(truncateTorn bool, window, budget int) error {
	var magic [len(fileMagic)]byte
	if n, err := l.f.ReadAt(magic[:], 0); err != nil && !isEOF(err) {
		return fmt.Errorf("%w: file magic: %w", ErrIO, err)
	} else if n < len(magic) || string(magic[:]) != fileMagic {
		return fmt.Errorf("%w: bad file magic", ErrCorrupt)
	}
	off := int64(len(fileMagic))
	size, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	// A file shorter than the window needs no more buffer than it has
	// bytes; a header must always fit.
	buf := make([]byte, max(min(int64(window), size-off), segmentHeaderSize))
	w := scanWindow{f: l.f, buf: buf, off: off}
	shared := false
	for {
		hdr, err := w.peek(segmentHeaderSize)
		if err != nil {
			return fmt.Errorf("%w: header at %d: %w", ErrIO, off, err)
		}
		if len(hdr) == 0 {
			break // clean end
		}
		seg, segErr := l.scanHeader(off, hdr)
		if segErr == nil {
			if !shared && len(l.segs) > 0 && streamOf(seg.Epoch) != streamOf(l.segs[0].Epoch) {
				shared = true
				if size-off <= int64(budget) {
					l.keptFrom, w.keep = len(l.segs), make([]byte, 0, size-off)
				}
			}
			segErr = w.payload(seg)
		}
		if segErr != nil {
			if truncateTorn && errors.Is(segErr, ErrCorrupt) {
				if err := l.f.Truncate(off); err != nil {
					return fmt.Errorf("truncate torn tail: %w", err)
				}
				break
			}
			return segErr
		}
		next := off + int64(segmentHeaderSize+seg.Length)
		if len(l.segs) == cap(l.segs) {
			l.segs = slices.Grow(l.segs, 1+tableGrowth(len(l.segs)+1, next-int64(len(fileMagic)), size-next))
		}
		l.segs = append(l.segs, seg)
		if w.keep != nil {
			l.kept = w.keep // through this segment: never a torn one's partial payload
		}
		off = next
	}
	l.end = off
	if _, err := l.f.Seek(l.end, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// tableGrowth is how many more segments the index makes room for when the
// scan finds it full, after n segments framed in scanned bytes with left
// bytes still to go: the segments left at the average size so far, plus an
// eighth, so that a log of like-sized segments sizes its index once; at
// least n, so that the index doubles whatever the sizes, and allocates at
// most twice its final size in all; and never more than left could frame,
// one header each, so that no length field sizes it.
func tableGrowth(n int, scanned, left int64) int {
	est := int(left / (scanned / int64(n)))
	return min(max(n-1, est+est/8), int(left/segmentHeaderSize))
}

// scanHeader parses and validates the header of the segment at off, the
// next one the index expects. hdr holds the bytes the file has there (fewer
// than a full header only at end of file).
func (l *Log) scanHeader(off int64, hdr []byte) (SegmentInfo, error) {
	if len(hdr) < segmentHeaderSize {
		return SegmentInfo{}, fmt.Errorf("%w: partial header at %d", ErrCorrupt, off)
	}
	if binary.LittleEndian.Uint32(hdr) != segmentMagic {
		return SegmentInfo{}, fmt.Errorf("%w: bad magic at %d", ErrCorrupt, off)
	}
	seg := SegmentInfo{
		Seq:    binary.LittleEndian.Uint64(hdr[4:]),
		Epoch:  binary.LittleEndian.Uint64(hdr[12:]),
		Mode:   ckpt.Mode(hdr[20]),
		Offset: off,
		Length: int(binary.LittleEndian.Uint32(hdr[21:])),
		CRC:    binary.LittleEndian.Uint32(hdr[25:]),
	}
	if seg.Mode != ckpt.Full && seg.Mode != ckpt.Incremental {
		return SegmentInfo{}, fmt.Errorf("%w: bad mode %d at %d", ErrCorrupt, seg.Mode, off)
	}
	if want := uint64(len(l.segs) + 1); seg.Seq != want {
		return SegmentInfo{}, fmt.Errorf("%w: seq %d at %d, want %d", ErrCorrupt, seg.Seq, off, want)
	}
	return seg, nil
}

// payload consumes the segment seg, whose header starts at the window's
// position, and verifies its payload against the header's length and CRC.
func (s *scanWindow) payload(seg SegmentInfo) error {
	s.skip(segmentHeaderSize)
	crc, short, err := s.checksum(seg.Length)
	if err != nil {
		return fmt.Errorf("%w: payload at %d: %w", ErrIO, seg.Offset, err)
	}
	if short {
		return fmt.Errorf("%w: short payload at %d", ErrCorrupt, seg.Offset)
	}
	if crc != seg.CRC {
		return fmt.Errorf("%w: checksum mismatch at %d", ErrCorrupt, seg.Offset)
	}
	return nil
}

// scanWindowSize is how much of the file one read of the Open scan fetches.
const scanWindowSize = 1 << 20

// keepBudget is the most a shared log's Open keeps of its payloads for
// readRun: a log whose bytes from the second stream's first segment on
// exceed it keeps nothing, and its restart reads each chain from the file.
const keepBudget = 64 << 20

// scanWindow is the sliding read window of the Open scan: buf[r:w] holds the
// file's bytes from off on, refilled with one buffer-sized ReadAt whenever it
// runs short. The buffer never grows — a payload larger than it is
// checksummed window by window — so a scan allocates at most scanWindowSize
// bytes whatever the length fields in the file claim.
type scanWindow struct {
	f    io.ReaderAt
	buf  []byte
	r, w int
	off  int64 // file offset of buf[r]
	eof  bool  // the file ends at buf[w]
	// keep, when non-nil, receives every payload byte checksum consumes;
	// scan sizes it to the file bytes left, so it never grows.
	keep []byte
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// peek returns the next n bytes (n <= len(buf)) without consuming them, or
// as many as the file has left. An error is a failed read, never end of file.
func (s *scanWindow) peek(n int) ([]byte, error) {
	if s.w-s.r < n && !s.eof {
		s.w = copy(s.buf, s.buf[s.r:s.w])
		s.r = 0
		m, err := s.f.ReadAt(s.buf[s.w:], s.off+int64(s.w))
		s.w += m
		if err != nil {
			if !isEOF(err) {
				return nil, err
			}
			s.eof = true
		}
	}
	return s.buf[s.r:min(s.r+n, s.w)], nil
}

// skip consumes n bytes a peek returned.
func (s *scanWindow) skip(n int) {
	s.r += n
	s.off += int64(n)
}

// checksum consumes the next n bytes and returns their CRC-32 (IEEE); short
// reports that the file ended before n bytes.
func (s *scanWindow) checksum(n int) (crc uint32, short bool, err error) {
	for n > 0 {
		chunk, err := s.peek(min(n, len(s.buf)))
		if err != nil {
			return 0, false, err
		}
		if len(chunk) == 0 {
			return 0, true, nil
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		if s.keep != nil {
			s.keep = append(s.keep, chunk...)
		}
		s.skip(len(chunk))
		n -= len(chunk)
	}
	return crc, false, nil
}

// appendSegmentHeader frames seg's header — segmentHeaderSize bytes — onto
// dst.
func appendSegmentHeader(dst []byte, seg SegmentInfo) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, segmentMagic)
	dst = binary.LittleEndian.AppendUint64(dst, seg.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, seg.Epoch)
	dst = append(dst, byte(seg.Mode))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(seg.Length))
	return binary.LittleEndian.AppendUint32(dst, seg.CRC)
}

// Append writes one checkpoint body as a new segment and returns its
// sequence number.
func (l *Log) Append(mode ckpt.Mode, epoch uint64, body []byte) (uint64, error) {
	if err := l.usable(); err != nil {
		return 0, err
	}
	l.kept = nil // a handle that writes is past its restart
	seg := SegmentInfo{
		Seq:    uint64(len(l.segs) + 1),
		Epoch:  epoch,
		Mode:   mode,
		Offset: l.end,
		Length: len(body),
		CRC:    crc32.ChecksumIEEE(body),
	}
	hdr := appendSegmentHeader(l.hdr[:0], seg)

	// Failed writes and fsyncs are classified ErrIO: the fault is in the
	// transfer, not provably in the bytes on disk, so the caller may retry
	// (the failed segment's partial bytes are truncated away below either
	// way). AsyncWriter's bounded-retry policy keys on this classification.
	if _, err := l.f.WriteAt(hdr, l.end); err != nil {
		l.discardTail()
		return 0, fmt.Errorf("append segment %d: %w: %w", seg.Seq, ErrIO, err)
	}
	if _, err := l.f.WriteAt(body, l.end+segmentHeaderSize); err != nil {
		l.discardTail()
		return 0, fmt.Errorf("append segment %d: %w: %w", seg.Seq, ErrIO, err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			l.discardTail()
			return 0, fmt.Errorf("append segment %d: %w: %w", seg.Seq, ErrIO, err)
		}
	}
	l.segs = append(l.segs, seg)
	l.end += int64(segmentHeaderSize + len(body))
	return seg.Seq, nil
}

// gatherSize is the capacity of the staging buffer: the most one gathered
// write carries. A group commit larger than it takes several writes, cut
// where the next segment no longer fits; a single segment larger than it is
// not staged at all.
const gatherSize = 64 << 10

// stage frames one checkpoint body as the log's next segment into the
// staging buffer, for flushStaged to write together with its neighbours —
// AsyncWriter's group commit. Until then the segment is in no index and not
// in the file. A segment that does not fit the space left flushes the buffer
// first; one that does not fit an empty buffer goes through Append, uncopied.
// So where one write ends and the next begins depends on the sizes of the
// bodies staged and on the flushStaged calls, and on nothing else.
//
// An error is that flush's or that Append's, with the body not staged:
// staging the same body again retries exactly the failed write.
func (l *Log) stage(mode ckpt.Mode, epoch uint64, body []byte) error {
	if err := l.usable(); err != nil {
		return err
	}
	need := segmentHeaderSize + len(body)
	if need > gatherSize-len(l.wbuf) {
		if err := l.flushStaged(); err != nil {
			return err
		}
	}
	if need > gatherSize {
		_, err := l.Append(mode, epoch, body)
		return err
	}
	if l.wbuf == nil {
		l.wbuf = make([]byte, 0, gatherSize)
	}
	seg := SegmentInfo{
		Seq:    uint64(len(l.segs) + len(l.pend) + 1),
		Epoch:  epoch,
		Mode:   mode,
		Offset: l.end + int64(len(l.wbuf)),
		Length: len(body),
		CRC:    crc32.ChecksumIEEE(body),
	}
	l.wbuf = append(appendSegmentHeader(l.wbuf, seg), body...)
	l.pend = append(l.pend, seg)
	return nil
}

// flushStaged writes the staged segments with one WriteAt at l.end — and one
// fsync under WithSync — and indexes them. On failure the file is truncated
// back to l.end and the segments stay staged, so calling it again re-issues
// the same write. With nothing staged it does nothing.
func (l *Log) flushStaged() error {
	if len(l.pend) == 0 {
		return nil
	}
	l.kept = nil // a handle that writes is past its restart
	fail := func(err error) error {
		l.discardTail()
		return fmt.Errorf("append segments %d..%d: %w: %w",
			l.pend[0].Seq, l.pend[len(l.pend)-1].Seq, ErrIO, err)
	}
	if _, err := l.f.WriteAt(l.wbuf, l.end); err != nil {
		return fail(err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fail(err)
		}
	}
	l.segs = append(l.segs, l.pend...)
	l.end += int64(len(l.wbuf))
	l.unstage()
	return nil
}

// unstage forgets the staged segments: after a flush wrote them, or because
// their write failed for good and they will never be in the file.
func (l *Log) unstage() {
	l.wbuf = l.wbuf[:0]
	l.pend = l.pend[:0]
}

// discardTail truncates the file back to the last valid segment after a
// failed append. Without it, a partially written segment would linger past
// l.end; a later, shorter append would then leave a garbage suffix that a
// plain Open (without WithTruncateTorn) rejects as corruption. Best effort:
// if the truncate itself fails, recovery with WithTruncateTorn still works.
func (l *Log) discardTail() {
	_ = l.f.Truncate(l.end)
}

// Segments returns a copy of the segment index.
func (l *Log) Segments() []SegmentInfo {
	out := make([]SegmentInfo, len(l.segs))
	copy(out, l.segs)
	return out
}

// Read returns the payload of segment seq, verifying its checksum.
func (l *Log) Read(seq uint64) ([]byte, error) {
	if err := l.usable(); err != nil {
		return nil, err
	}
	if seq == 0 || seq > uint64(len(l.segs)) {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, seq)
	}
	seg := l.segs[seq-1]
	payload := make([]byte, seg.Length)
	if seg.Length > 0 {
		if _, err := l.f.ReadAt(payload, seg.Offset+segmentHeaderSize); err != nil {
			return nil, fmt.Errorf("%w: read segment %d: %w", ErrIO, seq, err)
		}
	}
	if crc32.ChecksumIEEE(payload) != seg.CRC {
		return nil, fmt.Errorf("read segment %d: %w: checksum mismatch", seq, ErrCorrupt)
	}
	return payload, nil
}

// ValidateRun checks that run is a coherent replay chain of one stream:
// non-empty, anchored by a full checkpoint, no second full mid-run, every
// segment in the anchor's stream, sequence numbers and epochs strictly
// increasing. Segment framing CRCs protect individual payloads, but nothing
// in the framing ties segments to each other — a hand-edited (or
// collision-corrupted) history could otherwise replay silently into
// nonsense. Other streams' segments may sit between a run's, so sequence
// numbers need not be consecutive. Violations return an error wrapping
// ErrIncoherent.
func ValidateRun(run []SegmentInfo) error {
	if len(run) == 0 {
		return fmt.Errorf("%w: empty run", ErrIncoherent)
	}
	if run[0].Mode != ckpt.Full {
		return fmt.Errorf("%w: run starts with an incremental (seq %d)", ErrIncoherent, run[0].Seq)
	}
	for i := 1; i < len(run); i++ {
		prev, cur := run[i-1], run[i]
		switch {
		case cur.Mode != ckpt.Incremental:
			return fmt.Errorf("%w: full checkpoint mid-run (seq %d)", ErrIncoherent, cur.Seq)
		case streamOf(cur.Epoch) != streamOf(run[0].Epoch):
			return fmt.Errorf("%w: seq %d is in stream %d, the run in stream %d",
				ErrIncoherent, cur.Seq, streamOf(cur.Epoch), streamOf(run[0].Epoch))
		case cur.Seq <= prev.Seq:
			return fmt.Errorf("%w: seq not increasing (%d after %d)", ErrIncoherent, cur.Seq, prev.Seq)
		case cur.Epoch <= prev.Epoch:
			return fmt.Errorf("%w: epoch not increasing at seq %d (%d after %d)",
				ErrIncoherent, cur.Seq, cur.Epoch, prev.Epoch)
		}
	}
	return nil
}

// Recover applies the recovery run of a log holding one stream to rb,
// reading each segment's payload. The run is validated first (see
// ValidateRun) and applied atomically: on any error — incoherent chain, read
// failure, corrupt body — rb is unchanged. A log shared by several streams
// fails with ErrIncoherent naming the stream count; replay one of its
// streams with RewindTo at that stream's latest epoch.
func (l *Log) Recover(rb *ckpt.Rebuilder) error {
	if err := l.usable(); err != nil {
		return err
	}
	x, err := l.catalog().only()
	if err != nil {
		return err
	}
	from, to, err := x.latest()
	if err != nil {
		return err
	}
	return l.replay(rb, x, from, to)
}

// readRun returns the bodies of a replay run — a stream's latest run or an
// EpochIndex chain — in order, ready for ckpt.Rebuilder.ApplyRun. A body
// whose payload Open kept (a shared log's, from its second stream on; see
// Open) is served in place: a capacity-clipped slice of the kept bytes,
// which nothing may write. Every other body comes off the file into one
// allocation, the caller's: a run whose segments sit back to back in the
// file, as every single-stream chain does, with one read; a run interleaved
// with other streams' segments with one read per segment, of its payload
// alone. Every payload is verified against its checksum, as Read does; a
// kept payload is the bytes Open verified, so on such a handle damage done
// to the file after Open goes unseen. readRun does I/O and checksums only:
// whether the bodies form a coherent chain of records is the rebuilder's
// question (see replay).
func (l *Log) readRun(run []SegmentInfo) ([][]byte, error) {
	if err := l.usable(); err != nil {
		return nil, err
	}
	// The log's own index, not the caller's copy, says where the bytes are.
	size, gap := 0, segmentHeaderSize // gap: header bytes in front of each body in buf
	for i, r := range run {
		if r.Seq == 0 || r.Seq > uint64(len(l.segs)) {
			return nil, fmt.Errorf("%w: %d", ErrNotFound, r.Seq)
		}
		if l.keeps(r.Seq) {
			gap = 0 // not read: no headers come along
			continue
		}
		size += l.segs[r.Seq-1].Length
		if i > 0 && r.Seq != run[i-1].Seq+1 {
			gap = 0 // not one span of the file
		}
	}
	buf := make([]byte, size+gap*len(run))
	if gap > 0 && len(run) > 0 {
		first, last := l.segs[run[0].Seq-1], run[len(run)-1].Seq
		if _, err := l.f.ReadAt(buf, first.Offset); err != nil {
			return nil, fmt.Errorf("%w: read segments %d..%d: %w", ErrIO, first.Seq, last, err)
		}
	}
	bodies := make([][]byte, len(run))
	for i, r := range run {
		seg := l.segs[r.Seq-1]
		var body []byte
		if l.keeps(seg.Seq) {
			body = l.keptPayload(seg)
		} else {
			body = buf[gap : gap+seg.Length : gap+seg.Length]
			buf = buf[gap+seg.Length:]
			if gap == 0 && seg.Length > 0 {
				if _, err := l.f.ReadAt(body, seg.Offset+segmentHeaderSize); err != nil {
					return nil, fmt.Errorf("%w: read segment %d: %w", ErrIO, seg.Seq, err)
				}
			}
		}
		if crc32.ChecksumIEEE(body) != seg.CRC {
			return nil, fmt.Errorf("read segment %d: %w: checksum mismatch", seg.Seq, ErrCorrupt)
		}
		bodies[i] = body
	}
	return bodies, nil
}

// keeps reports whether Open kept the payload of segment seq.
func (l *Log) keeps(seq uint64) bool {
	return l.kept != nil && seq > uint64(l.keptFrom)
}

// keptPayload returns the kept payload of seg, a segment keeps reports,
// clipped to its length. The kept bytes are the payloads alone, so seg's
// sits where its header does in the file, less one header for each kept
// segment before it.
func (l *Log) keptPayload(seg SegmentInfo) []byte {
	at := int(seg.Offset-l.segs[l.keptFrom].Offset) - (int(seg.Seq-1)-l.keptFrom)*segmentHeaderSize
	return l.kept[at : at+seg.Length : at+seg.Length]
}

// replay replays the stream x's segments pos[from:to] into rb: it gathers
// them into the log's scratch chain (l.chain, reused from call to call),
// validates the chain, reads it (readRun) and applies the bodies to rb as one
// atomic unit (ckpt.Rebuilder.ApplyRun), so on any error rb is unchanged.
// Delta records add a cross-body dependency segment framing knows nothing
// about — every delta needs an earlier payload for its object in the run —
// so a delta the run gives no base (ckpt.ErrDeltaBase) makes the chain
// incoherent as well: the error wraps both.
func (l *Log) replay(rb *ckpt.Rebuilder, x *EpochIndex, from, to int) error {
	l.chain = x.appendSegments(l.chain[:0], from, to)
	run := l.chain
	if err := ValidateRun(run); err != nil {
		return err
	}
	bodies, err := l.readRun(run)
	if err != nil {
		return err
	}
	if err := rb.ApplyRun(bodies); errors.Is(err, ckpt.ErrDeltaBase) {
		return fmt.Errorf("%w: replay run at seq %d: %w", ErrIncoherent, run[0].Seq, err)
	} else if err != nil {
		return fmt.Errorf("replay run at seq %d: %w", run[0].Seq, err)
	}
	return nil
}

// Sync flushes the file to stable storage. A failed fsync is classified
// ErrIO: transient, retryable, and saying nothing about the bytes on disk.
func (l *Log) Sync() error {
	if err := l.usable(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("%w: sync: %w", ErrIO, err)
	}
	return nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close syncs and closes the log file. Closing a wedged log releases the
// handle (if any survives) and returns the wedging error.
func (l *Log) Close() error {
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	l.kept = nil
	if l.wedged != nil {
		if l.f != nil {
			l.f.Close()
		}
		return l.wedged
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

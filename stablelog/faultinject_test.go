package stablelog_test

// Regression tests for the durability bugs the fault-injection harness
// exposed. Each test pins one fix:
//
//   - a crashed compaction's stale <path>.compact must not wedge Compact;
//   - Compact's rename must be committed with a directory fsync;
//   - a transient read error must never truncate good data, even under
//     WithTruncateTorn;
//   - a failed Append must not leave a garbage suffix that a later,
//     shorter append exposes to plain Open.

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
	"ickpt/stablelog"
)

// newFullLog creates a log with one full checkpoint and one incremental.
func newFullLog(t *testing.T, path string, opts ...stablelog.Option) *stablelog.Log {
	t.Helper()
	l, err := stablelog.Create(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ckpt.Full, 1, []byte("full-body")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ckpt.Incremental, 2, []byte("delta-body")); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestCompactRecoversFromStaleTempFile: a compaction that crashed after
// creating <path>.compact used to wedge every later Compact forever,
// because Create opens with O_EXCL.
func TestCompactRecoversFromStaleTempFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.log")
	l := newFullLog(t, path)
	defer l.Close()

	// Simulate the crashed predecessor's leftovers.
	stale := path + ".compact"
	if err := os.WriteFile(stale, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := l.Retain(stablelog.KeepLastRun{}); err != nil {
		t.Fatalf("Compact with stale temp file: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survives compaction: %v", err)
	}
	segs := l.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments after compact = %d, want 2", len(segs))
	}
	if body, err := l.Read(1); err != nil || string(body) != "full-body" {
		t.Errorf("Read(1) = %q, %v", body, err)
	}
}

// TestCompactCommitDurable: once Compact returns, a maximal-loss power cut
// must still show the compacted log — the rename is hardened by a directory
// fsync.
func TestCompactCommitDurable(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("c.log", stablelog.WithFS(m), stablelog.WithSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bodies := [][]byte{[]byte("dead-full"), []byte("live-full"), []byte("live-delta")}
	modes := []ckpt.Mode{ckpt.Full, ckpt.Full, ckpt.Incremental}
	for i, b := range bodies {
		if _, err := l.Append(modes[i], uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Retain(stablelog.KeepLastRun{}); err != nil {
		t.Fatal(err)
	}

	state := m.CrashState(faultfs.CrashPoint{Op: m.NumOps(), Lossy: true})
	reopened := faultfs.NewMemFromState(state)
	lg, err := stablelog.Open("c.log", stablelog.WithFS(reopened))
	if err != nil {
		t.Fatalf("reopen after power cut: %v", err)
	}
	defer lg.Close()
	segs := lg.Segments()
	if len(segs) != 2 {
		t.Fatalf("post-cut segments = %d, want the 2 compacted ones", len(segs))
	}
	if body, err := lg.Read(1); err != nil || string(body) != "live-full" {
		t.Errorf("Read(1) = %q, %v; pre-compaction log resurrected?", body, err)
	}
}

// TestCreateDurableEntry: the empty log survives a maximal-loss power cut
// the moment Create returns — file content and directory entry are both
// fsynced.
func TestCreateDurableEntry(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("c.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	state := m.CrashState(faultfs.CrashPoint{Op: m.NumOps(), Lossy: true})
	data, ok := state["c.log"]
	if !ok {
		t.Fatal("log file vanished at power cut right after Create returned")
	}
	reopened := faultfs.NewMemFromState(map[string][]byte{"c.log": data})
	lg, err := stablelog.Open("c.log", stablelog.WithFS(reopened))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	lg.Close()
}

// TestTransientReadErrorDoesNotTruncate: an EIO while scanning under
// WithTruncateTorn used to be mistaken for corruption, silently truncating
// perfectly good segments. It must surface as ErrIO and leave the file
// alone.
func TestTransientReadErrorDoesNotTruncate(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("t.log", stablelog.WithFS(m), stablelog.WithSync())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ckpt.Full, 1, []byte("good-full")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ckpt.Incremental, 2, []byte("good-delta")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before := len(m.Snapshot()["t.log"])

	// Fail each of the reads Open issues in turn — the file magic, then every
	// window of the scan — until an Open gets through with the fault still
	// pending: none may truncate, none may report corruption.
	failed := 0
	for nth := 1; ; nth++ {
		m.FailRead(nth, syscall.EIO)
		lg, err := stablelog.Open("t.log", stablelog.WithFS(m), stablelog.WithTruncateTorn())
		if err == nil {
			lg.Close()
			break
		}
		failed++
		if errors.Is(err, stablelog.ErrCorrupt) {
			t.Errorf("read %d: transient EIO misreported as corruption: %v", nth, err)
		}
		if !errors.Is(err, stablelog.ErrIO) || !errors.Is(err, syscall.EIO) {
			t.Errorf("read %d: err = %v, want ErrIO wrapping EIO", nth, err)
		}
		if after := len(m.Snapshot()["t.log"]); after != before {
			t.Fatalf("read %d: file truncated from %d to %d bytes on a transient error", nth, before, after)
		}
	}
	if failed < 2 {
		t.Fatalf("only %d read position(s) exercised, want the file magic and at least one window", failed)
	}
	m.FailRead(0, nil)

	// With the fault gone, everything is still there.
	lg, err := stablelog.Open("t.log", stablelog.WithFS(m), stablelog.WithTruncateTorn())
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	defer lg.Close()
	if len(lg.Segments()) != 2 {
		t.Errorf("segments = %d, want 2", len(lg.Segments()))
	}
}

// TestTransientReadErrorInLaterWindow: the same rule past the first window.
// On a log larger than the scan window, an EIO on the second window's read
// must not be taken for the end of the file and truncate everything after
// the first window.
func TestTransientReadErrorInLaterWindow(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("w.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, stablelog.ScanWindowSize/8)
	const segments = 20 // 2.5 windows
	for i := 0; i < segments; i++ {
		mode := ckpt.Incremental
		if i == 0 {
			mode = ckpt.Full
		}
		if _, err := l.Append(mode, uint64(i+1), body); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before := len(m.Snapshot()["w.log"])

	m.FailRead(3, syscall.EIO) // file magic, first window, second window
	_, err = stablelog.Open("w.log", stablelog.WithFS(m), stablelog.WithTruncateTorn())
	if !errors.Is(err, stablelog.ErrIO) || !errors.Is(err, syscall.EIO) || errors.Is(err, stablelog.ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrIO wrapping EIO", err)
	}
	if after := len(m.Snapshot()["w.log"]); after != before {
		t.Fatalf("file truncated from %d to %d bytes on a transient error", before, after)
	}

	lg, err := stablelog.Open("w.log", stablelog.WithFS(m), stablelog.WithTruncateTorn())
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	defer lg.Close()
	if n := len(lg.Segments()); n != segments {
		t.Errorf("segments = %d, want %d", n, segments)
	}
}

// TestAppendFailureNoGarbageSuffix: a failed body write used to leave its
// partial bytes past l.end; a later shorter append then left a garbage
// suffix that plain Open rejected. The failed append must truncate back.
func TestAppendFailureNoGarbageSuffix(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("g.log", stablelog.WithFS(m), stablelog.WithSync())
	if err != nil {
		t.Fatal(err)
	}

	// The next two WriteAt calls are this append's header and body; fail
	// the body after 7 garbage-to-be bytes landed.
	m.FailWrite(2, 7, syscall.EIO)
	long := []byte("a rather long body that will be torn mid-write")
	if _, err := l.Append(ckpt.Full, 1, long); !errors.Is(err, syscall.EIO) {
		t.Fatalf("injected Append = %v, want EIO", err)
	}

	// A shorter append must fully cover what is left of the failed one.
	if _, err := l.Append(ckpt.Full, 2, []byte("short")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Plain Open — no torn-tail forgiveness — must accept the file.
	lg, err := stablelog.Open("g.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatalf("Open after failed+retried append: %v", err)
	}
	defer lg.Close()
	segs := lg.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	if body, err := lg.Read(1); err != nil || string(body) != "short" {
		t.Errorf("Read(1) = %q, %v", body, err)
	}
}

// --- Post-rename fault sweep ---------------------------------------------
//
// Once a Compact/Retain rename has committed, the old inode is unlinked.
// The commit tail (directory fsync, closing the replaced handle, reopening
// and rescanning the renamed file) used to bail out on the first error,
// leaving l.f pointing at the unlinked inode and l.segs stale — subsequent
// Appends then wrote to a file no future Open would ever see. Each test
// below faults one post-rename step and asserts the required outcome: the
// disk is fully post-compaction (the rename already committed), and the
// in-memory Log either matches it or refuses every further op with
// ErrWedged.

// newDeadPrefixLog builds [dead-full, live-full, live-delta] on m, so that
// compaction visibly shrinks the log from 3 segments to 2.
func newDeadPrefixLog(t *testing.T, m *faultfs.Mem) *stablelog.Log {
	t.Helper()
	l, err := stablelog.Create("w.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{[]byte("dead-full"), []byte("live-full"), []byte("live-delta")}
	modes := []ckpt.Mode{ckpt.Full, ckpt.Full, ckpt.Incremental}
	for i, b := range bodies {
		if _, err := l.Append(modes[i], uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// assertDiskCompacted opens m's current view of w.log fresh and asserts it
// holds exactly the compacted run.
func assertDiskCompacted(t *testing.T, m *faultfs.Mem) {
	t.Helper()
	reopened := faultfs.NewMemFromState(m.Snapshot())
	lg, err := stablelog.Open("w.log", stablelog.WithFS(reopened))
	if err != nil {
		t.Fatalf("fresh Open of post-rename disk: %v", err)
	}
	defer lg.Close()
	if got := len(lg.Segments()); got != 2 {
		t.Fatalf("disk has %d segments, want the 2 compacted ones", got)
	}
	if body, err := lg.Read(1); err != nil || string(body) != "live-full" {
		t.Errorf("disk Read(1) = %q, %v, want live-full", body, err)
	}
}

// TestCompactPostRenameSyncDirFault: a failed directory fsync after the
// rename is transient — the error surfaces (as ErrIO), but the handle lands
// on the new file and the log stays fully usable.
func TestCompactPostRenameSyncDirFault(t *testing.T) {
	m := faultfs.NewMem()
	l := newDeadPrefixLog(t, m)
	defer l.Close()

	// Compact's syncs: tmp Create fsyncs file+dir (1,2), tmp data fsync (3),
	// tmp Close fsync (4), post-rename SyncDir (5).
	m.FailSync(5, syscall.EIO)
	err := l.Retain(stablelog.KeepLastRun{})
	if !errors.Is(err, stablelog.ErrIO) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Compact = %v, want ErrIO wrapping EIO", err)
	}
	if errors.Is(err, stablelog.ErrWedged) {
		t.Fatalf("transient dir-fsync fault wedged the log: %v", err)
	}
	assertDiskCompacted(t, m)
	// The in-memory log matches disk and keeps working over the new inode.
	if got := len(l.Segments()); got != 2 {
		t.Fatalf("in-memory index has %d segments, want 2", got)
	}
	if body, err := l.Read(1); err != nil || string(body) != "live-full" {
		t.Errorf("Read(1) = %q, %v", body, err)
	}
	if _, err := l.Append(ckpt.Incremental, 4, []byte("post-fault")); err != nil {
		t.Fatalf("Append after recovered fault: %v", err)
	}
	// What it appends is visible to a fresh Open — the old unlinked-inode
	// bug made exactly this invisible.
	reopened := faultfs.NewMemFromState(m.Snapshot())
	lg, err := stablelog.Open("w.log", stablelog.WithFS(reopened))
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if body, err := lg.Read(3); err != nil || string(body) != "post-fault" {
		t.Errorf("appended segment not visible to fresh Open: %q, %v", body, err)
	}
}

// TestCompactPostRenameCloseFault: a failed close of the replaced handle is
// likewise transient — reported, not wedging.
func TestCompactPostRenameCloseFault(t *testing.T) {
	m := faultfs.NewMem()
	l := newDeadPrefixLog(t, m)
	defer l.Close()

	// Closes during Compact: the tmp log's Close (1), the replaced handle (2).
	m.FailClose(2, syscall.EIO)
	err := l.Retain(stablelog.KeepLastRun{})
	if !errors.Is(err, stablelog.ErrIO) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Compact = %v, want ErrIO wrapping EIO", err)
	}
	if errors.Is(err, stablelog.ErrWedged) {
		t.Fatalf("close fault wedged the log: %v", err)
	}
	assertDiskCompacted(t, m)
	if _, err := l.Append(ckpt.Incremental, 4, []byte("post-fault")); err != nil {
		t.Fatalf("Append after recovered fault: %v", err)
	}
}

// TestCompactPostRenameReopenFaultWedges: if the renamed file cannot be
// reopened, there is no valid handle to restore — every later operation
// must fail with ErrWedged instead of touching the unlinked old inode.
func TestCompactPostRenameReopenFaultWedges(t *testing.T) {
	m := faultfs.NewMem()
	l := newDeadPrefixLog(t, m)

	// Opens during Compact: the tmp Create (1), the post-rename reopen (2).
	m.FailOpen(2, syscall.EIO)
	err := l.Retain(stablelog.KeepLastRun{})
	if !errors.Is(err, stablelog.ErrWedged) {
		t.Fatalf("Compact = %v, want ErrWedged", err)
	}
	assertWedgedOps(t, l, m)
}

// TestCompactPostRenameRescanFaultWedges: same contract when the reopen
// succeeds but rescanning the renamed file fails.
func TestCompactPostRenameRescanFaultWedges(t *testing.T) {
	m := faultfs.NewMem()
	l := newDeadPrefixLog(t, m)

	// Reads during Compact: the two kept payloads (1,2), then the rescan's
	// file magic (3).
	m.FailRead(3, syscall.EIO)
	err := l.Retain(stablelog.KeepLastRun{})
	if !errors.Is(err, stablelog.ErrWedged) {
		t.Fatalf("Compact = %v, want ErrWedged", err)
	}
	assertWedgedOps(t, l, m)
}

// assertWedgedOps: a wedged log refuses every operation with ErrWedged, the
// disk is fully post-compaction, and a fresh Open of the path works.
func assertWedgedOps(t *testing.T, l *stablelog.Log, m *faultfs.Mem) {
	t.Helper()
	if _, err := l.Append(ckpt.Incremental, 9, []byte("x")); !errors.Is(err, stablelog.ErrWedged) {
		t.Errorf("Append on wedged log = %v, want ErrWedged", err)
	}
	if _, err := l.Read(1); !errors.Is(err, stablelog.ErrWedged) {
		t.Errorf("Read on wedged log = %v, want ErrWedged", err)
	}
	if err := l.Sync(); !errors.Is(err, stablelog.ErrWedged) {
		t.Errorf("Sync on wedged log = %v, want ErrWedged", err)
	}
	if err := l.Retain(stablelog.KeepLastRun{}); !errors.Is(err, stablelog.ErrWedged) {
		t.Errorf("Compact on wedged log = %v, want ErrWedged", err)
	}
	rb := ckpt.NewRebuilder(ckpt.NewRegistry())
	if err := l.Recover(rb); !errors.Is(err, stablelog.ErrWedged) {
		t.Errorf("Recover on wedged log = %v, want ErrWedged", err)
	}
	if _, err := l.RewindTo(rb, 2); !errors.Is(err, stablelog.ErrWedged) {
		t.Errorf("RewindTo on wedged log = %v, want ErrWedged", err)
	}
	if err := l.Close(); !errors.Is(err, stablelog.ErrWedged) {
		t.Errorf("Close on wedged log = %v, want ErrWedged", err)
	}
	assertDiskCompacted(t, m)
	// The path itself is fine: abandoning the wedged handle and reopening
	// resumes service.
	lg, err := stablelog.Open("w.log", stablelog.WithFS(m))
	if err != nil {
		t.Fatalf("reopen after wedge: %v", err)
	}
	defer lg.Close()
	if _, err := lg.Append(ckpt.Incremental, 4, []byte("resumed")); err != nil {
		t.Errorf("Append after reopen: %v", err)
	}
}

// TestAppendSyncFailureSurfaced: WithSync must propagate fsync failures.
func TestAppendSyncFailureSurfaced(t *testing.T) {
	m := faultfs.NewMem()
	l, err := stablelog.Create("s.log", stablelog.WithFS(m), stablelog.WithSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m.FailSync(1, syscall.EIO)
	if _, err := l.Append(ckpt.Full, 1, []byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append with failing fsync = %v, want EIO", err)
	}
	// The failed segment is not in the index; a retry starts fresh at seq 1.
	if seq, err := l.Append(ckpt.Full, 1, []byte("x")); err != nil || seq != 1 {
		t.Errorf("retry = %d, %v; want seq 1", seq, err)
	}
}

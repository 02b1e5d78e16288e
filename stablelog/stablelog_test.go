package stablelog_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

func tempLogPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ckpt.log")
}

func TestCreateAppendReopen(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	bodies := [][]byte{
		[]byte("full checkpoint body"),
		[]byte("incr 1"),
		[]byte(""),
		[]byte("incr 3 with a longer payload"),
	}
	modes := []ckpt.Mode{ckpt.Full, ckpt.Incremental, ckpt.Incremental, ckpt.Incremental}
	for i, body := range bodies {
		seq, err := l.Append(modes[i], uint64(i+1), body)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Errorf("Append %d returned seq %d", i, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, err := stablelog.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	segs := l2.Segments()
	if len(segs) != len(bodies) {
		t.Fatalf("reopened %d segments, want %d", len(segs), len(bodies))
	}
	for i, seg := range segs {
		if seg.Mode != modes[i] || seg.Epoch != uint64(i+1) || seg.Length != len(bodies[i]) {
			t.Errorf("segment %d = %+v", i, seg)
		}
		got, err := l2.Read(seg.Seq)
		if err != nil {
			t.Fatalf("Read %d: %v", seg.Seq, err)
		}
		if !bytes.Equal(got, bodies[i]) {
			t.Errorf("Read %d = %q, want %q", seg.Seq, got, bodies[i])
		}
	}
}

func TestCreateExistingFails(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := stablelog.Create(path); err == nil {
		t.Error("Create over existing file succeeded")
	}
}

func TestReadUnknownSeq(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Read(1); !errors.Is(err, stablelog.ErrNotFound) {
		t.Errorf("Read(1) = %v, want ErrNotFound", err)
	}
	if _, err := l.Read(0); !errors.Is(err, stablelog.ErrNotFound) {
		t.Errorf("Read(0) = %v, want ErrNotFound", err)
	}
}

func TestRecoveryRun(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	seqModes := []ckpt.Mode{
		ckpt.Full, ckpt.Incremental, ckpt.Incremental,
		ckpt.Full, ckpt.Incremental,
	}
	for i, m := range seqModes {
		if _, err := l.Append(m, uint64(i+1), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	run, err := l.RecoveryRun()
	if err != nil {
		t.Fatalf("RecoveryRun: %v", err)
	}
	if len(run) != 2 || run[0].Seq != 4 || run[1].Seq != 5 {
		t.Errorf("run = %+v, want segments 4,5", run)
	}
	if run[0].Mode != ckpt.Full {
		t.Error("run does not start with a full checkpoint")
	}
}

func TestRecoveryRunNoFull(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(ckpt.Incremental, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RecoveryRun(); !errors.Is(err, stablelog.ErrNoFull) {
		t.Errorf("RecoveryRun = %v, want ErrNoFull", err)
	}
}

func TestTornTailTruncation(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ckpt.Full, 1, []byte("good segment")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ckpt.Incremental, 2, []byte("will be torn")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop bytes off the end of the file.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	// Without the option: corrupt.
	if _, err := stablelog.Open(path); !errors.Is(err, stablelog.ErrCorrupt) {
		t.Errorf("Open torn = %v, want ErrCorrupt", err)
	}

	// With the option: the good prefix survives.
	l2, err := stablelog.Open(path, stablelog.WithTruncateTorn())
	if err != nil {
		t.Fatalf("Open with truncate: %v", err)
	}
	defer l2.Close()
	segs := l2.Segments()
	if len(segs) != 1 {
		t.Fatalf("surviving segments = %d, want 1", len(segs))
	}
	got, err := l2.Read(1)
	if err != nil || string(got) != "good segment" {
		t.Errorf("Read = %q, %v", got, err)
	}

	// The truncated log accepts new appends.
	if _, err := l2.Append(ckpt.Incremental, 2, []byte("retry")); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
}

func TestBitrotDetected(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ckpt.Full, 1, []byte("payload to corrupt")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte (last byte of the file).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := stablelog.Open(path); !errors.Is(err, stablelog.ErrCorrupt) {
		t.Errorf("Open bitrot = %v, want ErrCorrupt", err)
	}

	// With truncation the whole (single-segment) log is emptied.
	l2, err := stablelog.Open(path, stablelog.WithTruncateTorn())
	if err != nil {
		t.Fatalf("Open with truncate: %v", err)
	}
	defer l2.Close()
	if len(l2.Segments()) != 0 {
		t.Errorf("segments after corrupt truncate = %d, want 0", len(l2.Segments()))
	}
}

func TestCompact(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	payloads := [][]byte{
		[]byte("old full"), []byte("old incr"),
		[]byte("new full"), []byte("incr a"), []byte("incr b"),
	}
	modes := []ckpt.Mode{ckpt.Full, ckpt.Incremental, ckpt.Full, ckpt.Incremental, ckpt.Incremental}
	for i := range payloads {
		if _, err := l.Append(modes[i], uint64(i+1), payloads[i]); err != nil {
			t.Fatal(err)
		}
	}

	if err := l.Retain(stablelog.KeepLastRun{}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	segs := l.Segments()
	if len(segs) != 3 {
		t.Fatalf("segments after compact = %d, want 3", len(segs))
	}
	want := [][]byte{[]byte("new full"), []byte("incr a"), []byte("incr b")}
	for i, seg := range segs {
		if seg.Seq != uint64(i+1) {
			t.Errorf("segment %d renumbered to %d", i, seg.Seq)
		}
		got, err := l.Read(seg.Seq)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Errorf("Read %d = %q, %v; want %q", seg.Seq, got, err, want[i])
		}
	}
	// Appending after compaction continues the new numbering.
	seq, err := l.Append(ckpt.Incremental, 9, []byte("post"))
	if err != nil || seq != 4 {
		t.Errorf("Append after compact = %d, %v; want seq 4", seq, err)
	}
}

func TestClosedLogFails(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ckpt.Full, 1, nil); !errors.Is(err, stablelog.ErrClosed) {
		t.Errorf("Append after close = %v", err)
	}
	if err := l.Close(); !errors.Is(err, stablelog.ErrClosed) {
		t.Errorf("double Close = %v", err)
	}
}

func TestRoundTripWithRebuilder(t *testing.T) {
	// End-to-end: checkpoint bodies from a real writer, through the log,
	// into a rebuilder.
	type leaf struct {
		info ckpt.Info
		v    int64
	}
	// Reuse the ckpt test protocol via a local minimal type.
	_ = leaf{}

	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Minimal hand-rolled bodies via the public Writer API need a real
	// Checkpointable; the integration test lives in the synth package.
	// Here, verify only that Recover() demands a full checkpoint.
	rb := ckpt.NewRebuilder(ckpt.NewRegistry())
	if err := l.Recover(rb); !errors.Is(err, stablelog.ErrNoFull) {
		t.Errorf("Recover on empty log = %v, want ErrNoFull", err)
	}
}

func TestAsyncWriter(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	aw := stablelog.NewAsyncWriter(l)
	buf := []byte("reused buffer")
	for i := 0; i < 10; i++ {
		buf[0] = byte('a' + i)
		if err := aw.Append(ckpt.Incremental, uint64(i+1), buf); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := aw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := aw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs := l.Segments()
	if len(segs) != 10 {
		t.Fatalf("segments = %d, want 10", len(segs))
	}
	for i, seg := range segs {
		got, err := l.Read(seg.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte('a'+i) {
			t.Errorf("segment %d first byte = %c, want %c (buffer reuse must copy)", i, got[0], 'a'+i)
		}
	}

	if err := aw.Append(ckpt.Full, 99, nil); !errors.Is(err, stablelog.ErrClosed) {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}
	if err := aw.Close(); !errors.Is(err, stablelog.ErrClosed) {
		t.Errorf("double Close = %v, want ErrClosed", err)
	}
}

func TestAsyncWriterErrorSticky(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	aw := stablelog.NewAsyncWriter(l)
	// Closing the underlying log forces write errors.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_ = aw.Append(ckpt.Full, 1, []byte("x"))
	// Flush must surface the error (or a later Append will).
	err1 := aw.Flush()
	err2 := aw.Close()
	if err1 == nil && err2 == nil {
		t.Error("async writer swallowed the write error")
	}
}
